//! Lazy op-graph IR with elementwise+quantize fusion.
//!
//! Two halves share one contract:
//!
//! * **Runtime** ([`Recorder`] plus the fused executor): module forwards
//!   record shape-preserving elementwise work (BatchNorm normalize/affine,
//!   ReLU/ReLU6, residual adds, activation fake-quant) as groups instead
//!   of executing eagerly. A flush merges the pending groups into one
//!   cache-blocked pass over memory per quantization segment, executed
//!   on the deterministic worker pool.
//! * **Static** ([`Graph`], built by [`Graph::lower`]): the spec
//!   [`Plan`] lowers to explicit nodes (conv/matmul/BN/activation/
//!   quantize/add/reduce/movement) with shapes, strides and bit-width
//!   metadata. Shape and FLOP inference live *here* — `spec` delegates
//!   its per-layer inference to the lowering, making the graph the
//!   single source of truth that `cq-check` validates per config.
//!
//! # Bitwise contract
//!
//! A fused chain is bit-identical, at every thread count, to the
//! pass-per-group reference: one executor call per group, which is what
//! each layer's own [`Layer::forward`] makes.
//!
//! 1. Every fusable op depends only on its own element, and every
//!    intermediate value is stored as an exact `f32` (no extended
//!    precision is carried between ops), so applying op chains per
//!    cache-block is bit-equal to applying them in separate full passes.
//! 2. Parallel passes write disjoint chunks of a grid derived from the
//!    problem size only (never the thread count), so scheduling cannot
//!    reorder any arithmetic.
//! 3. Fake-quant needs a whole-tensor min/max reduction, so it is a pass
//!    boundary: the chain materializes and [`cq_quant::fake_quant_into`]
//!    runs over the full buffer exactly as a standalone layer would.
//!
//! # The pass kernel
//!
//! Each chunk's op loop is one `cq_tensor::simd::Body`, compiled at every
//! [`SimdLevel`]. The ops are branch-free and keep the scalar rules of
//! [`crate::reference::apply_op`]: ReLU zeroes `!(v > 0)`, so NaN becomes
//! 0; ReLU6 is `f32::clamp(v, 0, 6)`, so NaN and `−0.0` pass through; the
//! mask bit is `v > 0` for ReLU and `0 < v < 6` for ReLU6. Activation
//! masks are packed bits (`Mask`, 32 elements to a `u32` word) rather
//! than an `f32` per element, and the chunk grid is laid over mask words,
//! so every word has one writer. Tap buffers come from the recycler's
//! `take_written` and are not filled first: the op that writes a tap
//! writes all of it, which the executor checks for each group before it
//! runs. Per-channel ops walk their channel segments with one division
//! per chunk, so short segments (R18's 2×2 stage, `inner = 4`;
//! `BatchNorm1d`, `inner = 1`) cost no division each.

use std::sync::Arc;
use std::time::Instant;

use cq_obs::Counter;
use cq_quant::{fake_quant_into, fake_quant_scanned_lanes, Precision, QuantMode, RangeScan};
use cq_tensor::lanes::PadLanes;
use cq_tensor::par::{parallel_for_chunks, parallel_map_chunks, ChunkGrid};
use cq_tensor::recycle::{self, take_written};
use cq_tensor::simd::{dispatch, Body, SimdLevel};
use cq_tensor::{Conv2dSpec, Layout, Tensor};

use crate::spec::{LayerKind, LayerSpec, Plan, SpecError, SpecErrorKind};
use crate::{Cache, ForwardCtx, Layer, NnError, ParamSet, Result};

/// Result alias for spec-attributed (shape/FLOP inference) failures.
type SpecResult<T> = std::result::Result<T, SpecError>;

/// Flushed chains of two or more groups.
static C_FUSED_CHAINS: Counter = Counter::new("graph.fused_chains");
/// Bytes of memory traffic elided by merging passes (one read + one
/// write of the working buffer per elided pass).
static C_ELIDED_BYTES: Counter = Counter::new(cq_obs::names::FUSION_PASS_ELIDED_BYTES);
/// Wall time spent inside the elementwise-chain executor. Timing-only:
/// exempt from hard gating in `cq-trace diff`, like the pool.* series.
static C_EW_EXEC_NS: Counter = Counter::new("graph.ew_exec_ns");

/// Elements per cache block: 4096 f32 = 16 KiB, so a fused chain's
/// working set (buffer plus at most a tap and a second operand) stays
/// L1/L2-resident between ops. Also the parallel min-chunk, which keeps
/// the chunk grid — and the pool workload counters — a function of the
/// problem size only.
const BLOCK_ELEMS: usize = 4096;

// ---------------------------------------------------------------------------
// Runtime chain: ops, groups, executor
// ---------------------------------------------------------------------------

/// One recorded elementwise operation. All ops are shape-preserving and
/// depend only on their own element (plus broadcast per-channel
/// constants), which is what makes pass merging bit-exact. They run in
/// storage order, so a lane tensor's chain runs in the lane layout, pad
/// lanes included (their values are never read).
pub(crate) enum EwOp {
    /// `v = (v - mean[c]) * inv_std[c]`, writing the normalized value to
    /// the group's `xhat` tap when requested.
    Normalize {
        /// Per-channel mean.
        mean: Vec<f32>,
        /// Per-channel reciprocal standard deviation.
        inv_std: Vec<f32>,
    },
    /// `v = scale[c] * v + shift[c]`.
    Affine {
        /// Per-channel scale (BN gamma).
        scale: Vec<f32>,
        /// Per-channel shift (BN beta).
        shift: Vec<f32>,
    },
    /// `v = max(0, v)`, writing 1.0 to the mask tap where the input was
    /// strictly positive.
    Relu,
    /// `v = clamp(v, 0, 6)`, mask tap 1.0 on the open interval (0, 6).
    Relu6,
    /// `v = v + other[i]` — the residual join. The operand is shared,
    /// not copied: callers that still hold the skip tensor (it is read,
    /// never written) hand over an `Arc` clone instead of a deep copy.
    Add(Arc<Tensor>),
}

/// Elements per activation-mask word.
pub(crate) const MASK_WORD: usize = 32;

/// An activation's gradient mask, one bit per element: bit `i % 32` of
/// word `i / 32` is set where the activation passes gradient. Bits past
/// the last element are clear. The words return to the recycler on drop.
pub(crate) struct Mask {
    /// The packed bits, `⌈len / 32⌉` words, one per stored element (pad
    /// lanes included).
    pub(crate) words: Vec<u32>,
    /// Dims of the tensor the mask covers.
    pub(crate) dims: Vec<usize>,
    /// Layout of the tensor the mask covers.
    pub(crate) layout: Layout,
}

impl Drop for Mask {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.words));
    }
}

/// Tensors captured during execution for a group's backward cache.
pub(crate) struct TapData {
    /// Normalized pre-affine values (BatchNorm's `xhat`).
    pub xhat: Option<Tensor>,
    /// Activation pass-through mask.
    pub mask: Option<Mask>,
}

type CacheBuild = Box<dyn FnOnce(TapData) -> Cache + Send>;

/// One layer's worth of recorded elementwise work: an op list, optional
/// per-channel geometry, an optional trailing fake-quant (a pass
/// boundary), requested taps, and a deferred cache constructor.
pub(crate) struct EwGroup {
    ops: Vec<EwOp>,
    /// `(channels, inner)` geometry for `Normalize`/`Affine` ops; the
    /// storage is viewed as `(outer, channels, inner)` row-major: `(N, C,
    /// H·W)` for an NCHW tensor, `(⌈N/16⌉, C, H·W·16)` for a lane tensor.
    geom: Option<(usize, usize)>,
    quant: Option<(Precision, QuantMode)>,
    want_xhat: bool,
    want_mask: bool,
    build: Option<CacheBuild>,
}

impl EwGroup {
    /// A group with the given ops and optional channel geometry.
    pub(crate) fn new(ops: Vec<EwOp>, geom: Option<(usize, usize)>) -> Self {
        EwGroup {
            ops,
            geom,
            quant: None,
            want_xhat: false,
            want_mask: false,
            build: None,
        }
    }

    /// Appends a trailing fake-quant (executed after the ops, over the
    /// materialized buffer).
    pub(crate) fn with_quant(mut self, precision: Precision, mode: QuantMode) -> Self {
        self.quant = Some((precision, mode));
        self
    }

    /// Requests the normalized-value tap (for BatchNorm caches).
    pub(crate) fn with_xhat_tap(mut self) -> Self {
        self.want_xhat = true;
        self
    }

    /// Requests the activation mask tap.
    pub(crate) fn with_mask_tap(mut self) -> Self {
        self.want_mask = true;
        self
    }

    /// Sets the deferred cache constructor, called with the taps once the
    /// chain has executed.
    pub(crate) fn with_cache(
        mut self,
        build: impl FnOnce(TapData) -> Cache + Send + 'static,
    ) -> Self {
        self.build = Some(Box::new(build));
        self
    }
}

/// Raw pointer wrapper for disjoint parallel writes (tap buffers and the
/// shared working buffer).
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced at chunk-disjoint indices of a
// buffer that outlives the parallel dispatch, and the `T`s it reaches
// (plain `f32`/`u32`) may move between threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared copies never touch the same index.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The `len` elements from `start`, as a slice.
    ///
    /// # Safety
    ///
    /// `start..start + len` must lie inside the allocation the pointer
    /// came from, and no other live reference may touch that range.
    #[inline(always)]
    unsafe fn slice<'s>(self, start: usize, len: usize) -> &'s mut [T] {
        // SAFETY: guaranteed by the caller.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// A compiled per-pass op: borrows group data, carries raw pointers to
/// the tap buffers.
enum KOp<'a> {
    Norm {
        mean: &'a [f32],
        inv_std: &'a [f32],
        c: usize,
        inner: usize,
        xhat: Option<SendPtr<f32>>,
    },
    Affine {
        scale: &'a [f32],
        shift: &'a [f32],
        c: usize,
        inner: usize,
    },
    Relu {
        mask: Option<SendPtr<u32>>,
    },
    Relu6 {
        mask: Option<SendPtr<u32>>,
    },
    Add {
        other: &'a [f32],
    },
}

/// Applies `f(ci, lo, hi)` over the per-channel segments of the absolute
/// index range `[start, start + len)` under `(outer, c, inner)` geometry;
/// `lo..hi` are chunk-relative. Divides once per call, not per segment:
/// the channel index steps and wraps as the segments advance.
#[inline(always)]
fn for_channel_segments(
    start: usize,
    len: usize,
    c: usize,
    inner: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let mut ci = (start / inner) % c;
    let mut seg = inner - start % inner;
    let mut pos = 0;
    while pos < len {
        let hi = (pos + seg).min(len);
        f(ci, pos, hi);
        pos = hi;
        seg = inner;
        ci += 1;
        if ci == c {
            ci = 0;
        }
    }
}

/// Applies `f` (returning the new value and its mask bit) to every
/// element of `chunk`, writing one mask word per 32 elements.
#[inline(always)]
fn masked(chunk: &mut [f32], words: &mut [u32], f: impl Fn(f32) -> (f32, bool)) {
    let block = |b: &mut [f32]| {
        let mut bits = 0u32;
        for (j, v) in b.iter_mut().enumerate() {
            let (y, keep) = f(*v);
            *v = y;
            bits |= u32::from(keep) << j;
        }
        bits
    };
    let (blocks, rest) = chunk.as_chunks_mut::<MASK_WORD>();
    let (full, last) = words.split_at_mut(blocks.len());
    for (b, w) in blocks.iter_mut().zip(full) {
        *w = block(b);
    }
    if let Some(w) = last.first_mut() {
        *w = block(rest);
    }
}

/// ReLU: `!(v > 0) → 0`, so NaN becomes 0; the bit is `v > 0`.
#[inline(always)]
fn relu(v: f32) -> (f32, bool) {
    let keep = v > 0.0;
    (if keep { v } else { 0.0 }, keep)
}

/// ReLU6: `f32::clamp(v, 0, 6)`, so NaN stays NaN and −0.0 stays −0.0;
/// the bit is `0 < v < 6`.
#[inline(always)]
fn relu6(v: f32) -> (f32, bool) {
    (v.clamp(0.0, 6.0), (v > 0.0) & (v < 6.0))
}

/// Applies one compiled op to `chunk`, which holds the elements at
/// absolute indices `[start, start + chunk.len())`; `start` is a multiple
/// of [`MASK_WORD`]. Every op writes every element of its tap range, so
/// the taps need no zero-fill.
#[inline(always)]
fn apply_op(op: &KOp<'_>, chunk: &mut [f32], start: usize) {
    let len = chunk.len();
    match *op {
        KOp::Norm {
            mean,
            inv_std,
            c,
            inner,
            xhat,
        } => match xhat {
            Some(p) => {
                // SAFETY: this chunk's range of the tap, which has the
                // buffer's length; chunks are disjoint.
                let tap = unsafe { p.slice(start, len) };
                for_channel_segments(start, len, c, inner, |ci, lo, hi| {
                    let (mu, is) = (mean[ci], inv_std[ci]);
                    for (v, t) in chunk[lo..hi].iter_mut().zip(&mut tap[lo..hi]) {
                        let xh = (*v - mu) * is;
                        *t = xh;
                        *v = xh;
                    }
                });
            }
            None => for_channel_segments(start, len, c, inner, |ci, lo, hi| {
                let (mu, is) = (mean[ci], inv_std[ci]);
                for v in &mut chunk[lo..hi] {
                    *v = (*v - mu) * is;
                }
            }),
        },
        KOp::Affine {
            scale,
            shift,
            c,
            inner,
        } => for_channel_segments(start, len, c, inner, |ci, lo, hi| {
            let (gc, bc) = (scale[ci], shift[ci]);
            for v in &mut chunk[lo..hi] {
                *v = gc * *v + bc;
            }
        }),
        KOp::Relu { mask } => match mask {
            // SAFETY: this chunk's words (`start` is word-aligned) of a
            // mask of `⌈buffer / 32⌉` words; chunks are disjoint.
            Some(p) => masked(chunk, unsafe { mask_words(p, start, len) }, relu),
            None => chunk.iter_mut().for_each(|v| *v = relu(*v).0),
        },
        KOp::Relu6 { mask } => match mask {
            // SAFETY: as for `Relu`.
            Some(p) => masked(chunk, unsafe { mask_words(p, start, len) }, relu6),
            None => chunk.iter_mut().for_each(|v| *v = relu6(*v).0),
        },
        KOp::Add { other } => {
            for (v, &o) in chunk.iter_mut().zip(&other[start..start + len]) {
                *v += o;
            }
        }
    }
}

/// The mask words covering elements `[start, start + len)`.
///
/// # Safety
///
/// As [`SendPtr::slice`], for the word range; `start` is word-aligned.
#[inline(always)]
unsafe fn mask_words<'s>(p: SendPtr<u32>, start: usize, len: usize) -> &'s mut [u32] {
    // SAFETY: guaranteed by the caller.
    unsafe { p.slice(start / MASK_WORD, len.div_ceil(MASK_WORD)) }
}

/// One chunk's op list, compiled at every [`SimdLevel`].
struct ChunkOps<'o, 'a> {
    ops: &'o [KOp<'a>],
    chunk: &'o mut [f32],
    start: usize,
}

impl Body for ChunkOps<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        for op in self.ops {
            apply_op(op, self.chunk, self.start);
        }
    }
}

/// Runs one pass over the whole buffer (transformed in place) on the
/// worker pool, with the op loop compiled at `level`. Ops are applied
/// per cache-block, so merged groups reuse L1/L2-resident data. Chunks
/// start on mask-word boundaries, so each mask word has one writer.
/// With `scan`, each chunk additionally folds its final values into a
/// [`RangeScan`] partial while they are still cache-resident, and the
/// partials are combined in chunk-index order — bit-identical to the
/// quantizer's own post-pass sweep (see [`RangeScan`]) with the
/// whole-buffer re-read elided. The scan skips `pad`'s lanes.
fn run_pass(
    level: SimdLevel,
    buf: &mut [f32],
    ops: &[KOp<'_>],
    scan: bool,
    pad: Option<PadLanes>,
) -> Option<RangeScan> {
    let len = buf.len();
    let base = SendPtr(buf.as_mut_ptr());
    let grid = ChunkGrid::new(len.div_ceil(MASK_WORD), BLOCK_ELEMS / MASK_WORD);
    let chunk_at = move |ws: usize, we: usize| {
        let (start, end) = (ws * MASK_WORD, (we * MASK_WORD).min(len));
        // SAFETY: the grid's chunks are disjoint and `buf` outlives the
        // dispatch, which blocks until every chunk completes.
        let chunk: &mut [f32] = unsafe { base.slice(start, end - start) };
        let ops = ChunkOps {
            ops,
            chunk: &mut *chunk,
            start,
        };
        dispatch(level, ops);
        (chunk, start)
    };
    if !scan {
        parallel_for_chunks(grid, |_c, ws, we| {
            chunk_at(ws, we);
        });
        return None;
    }
    let parts = parallel_map_chunks(grid, RangeScan::new, |_c, ws, we, acc| {
        let (chunk, start) = chunk_at(ws, we);
        *acc = match pad {
            None => RangeScan::scan(chunk),
            Some(pad) => {
                let mut s = RangeScan::new();
                pad.real_runs(start, start + chunk.len(), |lo, hi| {
                    s.merge(RangeScan::scan(&chunk[lo - start..hi - start]));
                });
                s
            }
        };
    });
    let mut scan = RangeScan::new();
    for p in parts {
        scan.merge(p);
    }
    Some(scan)
}

/// Per-group tap buffers, allocated before execution. The op that
/// writes a tap writes all of it, so neither is filled first.
struct GroupTaps {
    xhat: Option<Tensor>,
    mask: Option<Vec<u32>>,
}

/// Executes a chain of groups over `src`, returning the output tensor
/// (in `src`'s layout) and one optional cache per group (in group order).
/// Takes the input by value: its storage becomes the working buffer, so
/// the executor allocates nothing for the chain value itself and the
/// first pass transforms in place instead of seeding a fresh buffer.
fn execute(src: Tensor, groups: Vec<EwGroup>) -> Result<(Tensor, Vec<Option<Cache>>)> {
    execute_at(SimdLevel::detect(), src, groups)
}

/// [`execute`] with the pass compiled at `level`.
pub(crate) fn execute_at(
    level: SimdLevel,
    src: Tensor,
    groups: Vec<EwGroup>,
) -> Result<(Tensor, Vec<Option<Cache>>)> {
    if groups.is_empty() {
        return Ok((src, Vec::new()));
    }
    let len = src.len();
    let (dims, layout, pad) = (src.dims().to_vec(), src.layout(), PadLanes::of(&src));
    // Real elements, which the counters count: pad lanes are left out.
    let elems = src.shape().len();
    for g in &groups {
        if let Some((c, inner)) = g.geom {
            if c == 0 || inner == 0 || !len.is_multiple_of(c * inner) {
                return Err(NnError::Param(format!(
                    "graph: channel geometry ({c}, {inner}) does not tile {len} elements"
                )));
            }
        }
        for op in &g.ops {
            if let EwOp::Add(other) = op {
                if other.len() != len || other.layout() != layout {
                    return Err(NnError::Param(format!(
                        "graph: add operand has {} {:?} elements, chain has {len} {layout:?}",
                        other.len(),
                        other.layout()
                    )));
                }
            }
        }
        // The taps are not filled first, so each requested tap needs an op
        // that writes all of it.
        let writes_xhat = g.ops.iter().any(|o| matches!(o, EwOp::Normalize { .. }));
        let writes_mask = g.ops.iter().any(|o| matches!(o, EwOp::Relu | EwOp::Relu6));
        if (g.want_xhat && !writes_xhat) || (g.want_mask && !writes_mask) {
            return Err(NnError::Param(
                "graph: a group requests a tap that none of its ops writes".into(),
            ));
        }
    }

    let n_groups = groups.len();
    // Pass segmentation: contiguous group ranges, each ending at (and
    // including) the first group carrying a fake-quant, because quant is
    // a whole-tensor reduction and therefore a pass boundary.
    let mut segments: Vec<std::ops::Range<usize>> = Vec::new();
    let mut seg_start = 0;
    for (i, g) in groups.iter().enumerate() {
        if g.quant.is_some() {
            segments.push(seg_start..i + 1);
            seg_start = i + 1;
        }
    }
    if seg_start < n_groups {
        segments.push(seg_start..n_groups);
    }

    let mut taps: Vec<GroupTaps> = groups
        .iter()
        .map(|g| GroupTaps {
            xhat: g.want_xhat.then(|| src.written_like()),
            mask: g.want_mask.then(|| take_written(len.div_ceil(MASK_WORD))),
        })
        .collect();

    let _sp = cq_obs::span("graph.ew_chain");
    // cq-allow(det-time-source): executor timing telemetry only; never feeds a computation
    let t0 = Instant::now();
    let mut out = src;
    let buf = out.as_mut_slice();
    for seg in segments.iter() {
        let mut kops: Vec<KOp<'_>> = Vec::new();
        for gi in seg.clone() {
            let (c, inner) = groups[gi].geom.unwrap_or((1, 1));
            let xhat = taps[gi]
                .xhat
                .as_mut()
                .map(|t| SendPtr(t.as_mut_slice().as_mut_ptr()));
            let mask = taps[gi].mask.as_mut().map(|v| SendPtr(v.as_mut_ptr()));
            for op in &groups[gi].ops {
                kops.push(match op {
                    EwOp::Normalize { mean, inv_std } => KOp::Norm {
                        mean,
                        inv_std,
                        c,
                        inner,
                        xhat,
                    },
                    EwOp::Affine { scale, shift } => KOp::Affine {
                        scale,
                        shift,
                        c,
                        inner,
                    },
                    EwOp::Relu => KOp::Relu { mask },
                    EwOp::Relu6 => KOp::Relu6 { mask },
                    EwOp::Add(t) => KOp::Add {
                        other: t.as_slice(),
                    },
                });
            }
        }
        let quant = groups[seg.end - 1].quant;
        let want_scan = matches!(quant, Some((Precision::Bits(_), _)));
        let scan = run_pass(level, buf, &kops, want_scan, pad);
        if let Some((p, m)) = quant {
            match scan {
                // In-pass range scan: bit-identical values, counters and
                // histograms to the quantizer's own sweep, without the
                // whole-buffer re-read (see `RangeScan`).
                Some(s) => fake_quant_scanned_lanes(buf, elems, s, p, m),
                // Precision::Fp carries no grid; the call is a no-op kept
                // for parity with the eager per-layer path.
                None => fake_quant_into(buf, p, m),
            }
        }
    }
    C_EW_EXEC_NS.add(t0.elapsed().as_nanos() as u64);
    if n_groups >= 2 {
        C_FUSED_CHAINS.add(1);
        let elided = (n_groups - segments.len()) as u64;
        C_ELIDED_BYTES.add(elided * elems as u64 * 8);
    }

    let mut caches = Vec::with_capacity(n_groups);
    for (g, t) in groups.into_iter().zip(taps) {
        caches.push(match g.build {
            Some(build) => {
                let mask = t.mask.map(|words| Mask {
                    words,
                    dims: dims.clone(),
                    layout,
                });
                Some(build(TapData { xhat: t.xhat, mask }))
            }
            None => None,
        });
    }
    Ok((out, caches))
}

/// Executes a single group eagerly (the standalone `Layer::forward` path
/// of activation and normalization layers). The group must carry a cache
/// constructor.
pub(crate) fn execute_single(src: &Tensor, group: EwGroup) -> Result<(Tensor, Cache)> {
    let (y, mut caches) = execute(src.clone(), vec![group])?;
    match caches.pop().flatten() {
        Some(c) => Ok((y, c)),
        None => Err(NnError::Param(
            "graph: single-group execution produced no cache".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Drives a chain of [`Layer`]s, recording fusable elementwise work
/// lazily and materializing at barriers (opaque layers, whole-tensor
/// reductions, sanitize scans, [`Recorder::finish`]).
///
/// Used by [`crate::Sequential`] and the residual layer `Plan::build`
/// makes; layers opt in by overriding [`Layer::record`].
pub struct Recorder<'a> {
    ps: &'a ParamSet,
    ctx: &'a ForwardCtx,
    cur: Tensor,
    pending: Vec<EwGroup>,
    /// Per pending group: the cache slot it fills after execution.
    pending_slots: Vec<Option<usize>>,
    /// One slot per `run` call, in layer order.
    slots: Vec<Option<Cache>>,
    /// Slot of the layer currently recording (consumed by `push_group`).
    cur_slot: Option<usize>,
    layer_idx: usize,
}

impl<'a> Recorder<'a> {
    /// Starts a chain at `input`.
    pub fn new(ps: &'a ParamSet, ctx: &'a ForwardCtx, input: Tensor) -> Self {
        Recorder {
            ps,
            ctx,
            cur: input,
            pending: Vec::new(),
            pending_slots: Vec::new(),
            slots: Vec::new(),
            cur_slot: None,
            layer_idx: 0,
        }
    }

    /// The parameter set the chain runs against.
    pub fn ps(&self) -> &'a ParamSet {
        self.ps
    }

    /// The forward context the chain runs under.
    pub fn ctx(&self) -> &'a ForwardCtx {
        self.ctx
    }

    /// The chain value as of the last materialization. Layers that need
    /// actual input data (whole-tensor reductions like BatchNorm
    /// statistics) call `Recorder::flush_pending` first.
    pub fn cur(&self) -> &Tensor {
        &self.cur
    }

    /// Executes any pending groups, leaving [`Recorder::cur`] fully
    /// materialized.
    pub(crate) fn flush_pending(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let groups = std::mem::take(&mut self.pending);
        let slot_ids = std::mem::take(&mut self.pending_slots);
        // Hand the chain value's storage to the executor (it becomes the
        // working buffer); on an executor error the recorder is left with
        // a placeholder, which is fine — errors here are fatal to the
        // chain and propagate out of every public entry point.
        let cur = std::mem::replace(&mut self.cur, Tensor::zeros(&[1]));
        let (y, caches) = execute(cur, groups)?;
        self.cur = y;
        for (slot, cache) in slot_ids.into_iter().zip(caches) {
            if let Some(si) = slot {
                self.slots[si] = cache;
            }
        }
        Ok(())
    }

    /// Materializes pending work and returns the chain value.
    ///
    /// # Errors
    ///
    /// Propagates executor failures (geometry/operand mismatches).
    pub fn materialized(&mut self) -> Result<&Tensor> {
        self.flush_pending()?;
        Ok(&self.cur)
    }

    /// Appends a recorded group to the pending chain. The group's cache
    /// (if it builds one) is routed to the slot of the layer currently
    /// inside [`Recorder::run`].
    pub(crate) fn push_group(&mut self, g: EwGroup) {
        let slot = if g.build.is_some() {
            self.cur_slot.take()
        } else {
            None
        };
        self.pending_slots.push(slot);
        self.pending.push(g);
    }

    /// Records a residual join: `chain = chain + other`. The operand must
    /// already be materialized (it is read, never written), and is taken
    /// as anything convertible to `Arc<Tensor>` so callers that keep the
    /// skip alive can share it without a deep copy.
    ///
    /// # Errors
    ///
    /// Returns an error if `other`'s length differs from the chain's.
    pub fn push_add(&mut self, other: impl Into<Arc<Tensor>>) -> Result<()> {
        let other = other.into();
        if other.len() != self.cur.len() || other.layout() != self.cur.layout() {
            return Err(NnError::Param(format!(
                "graph: residual operand has {} {:?} elements, chain has {} {:?}",
                other.len(),
                other.layout(),
                self.cur.len(),
                self.cur.layout()
            )));
        }
        self.push_group(EwGroup::new(vec![EwOp::Add(other)], None));
        Ok(())
    }

    /// Runs one layer through the chain: fusable layers record their
    /// elementwise groups, opaque layers force a materialization barrier
    /// and execute eagerly. Emits the per-layer span and, when the
    /// context requests sanitization, scans this layer's (materialized)
    /// output with the standard `layer #i (Kind)` attribution label.
    ///
    /// # Errors
    ///
    /// Propagates layer and executor failures; fails the chain on a
    /// fatal sanitizer violation.
    pub fn run(&mut self, layer: &mut dyn Layer) -> Result<()> {
        let i = self.layer_idx;
        self.layer_idx += 1;
        let kind = layer.layer_kind();
        // Per-layer forward timer; layer_kind() is 'static so the hook is
        // allocation-free, and a no-op without an installed sink.
        let _sp = cq_obs::span(kind);
        let slot = self.slots.len();
        self.slots.push(None);
        self.cur_slot = Some(slot);
        let recorded = layer.record(self)?;
        if recorded {
            if self.cur_slot.take().is_some() {
                return Err(NnError::Param(format!(
                    "graph: layer #{i} ({kind}) recorded without producing a cache group"
                )));
            }
        } else {
            self.cur_slot = None;
            self.flush_pending()?;
            let (y, c) = layer.forward(self.ps, &self.cur, self.ctx)?;
            self.cur = y;
            self.slots[slot] = Some(c);
        }
        if self.ctx.sanitize {
            self.flush_pending()?;
            let label = format!("layer #{i} ({kind})");
            if let Some(v) = cq_tensor::sanitize::scan_tensor(&label, &self.cur) {
                cq_tensor::sanitize::record(v.clone());
                if v.kind.is_fatal() {
                    return Err(NnError::NonFinite {
                        context: v.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Materializes the chain and returns the output tensor plus one
    /// cache per [`Recorder::run`] call, in layer order.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn finish(mut self) -> Result<(Tensor, Vec<Cache>)> {
        self.flush_pending()?;
        let caches = self
            .slots
            .into_iter()
            .map(|c| c.ok_or_else(|| NnError::Param("graph: a layer produced no cache".into())))
            .collect::<Result<Vec<Cache>>>()?;
        Ok((self.cur, caches))
    }
}

// ---------------------------------------------------------------------------
// Static graph IR
// ---------------------------------------------------------------------------

/// Reduction flavor of a [`NodeOp::Reduce`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Windowed max (max-pool).
    MaxWindow,
    /// Windowed mean (avg-pool).
    AvgWindow,
    /// Global spatial mean.
    GlobalAvg,
}

/// The operation a [`GraphNode`] performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOp {
    /// Graph input placeholder.
    Input,
    /// Dense or depthwise convolution.
    Conv {
        /// Depthwise (per-channel) variant.
        depthwise: bool,
        /// Kernel/stride/padding geometry.
        spec: Conv2dSpec,
    },
    /// Dense matrix product (fully connected layer).
    Matmul,
    /// Batch-norm normalize + affine over the channel axis.
    BatchNorm,
    /// ReLU-family activation.
    Activation {
        /// Clamp at 6 (ReLU6) instead of unbounded ReLU.
        clamp6: bool,
    },
    /// Projection onto the activation quantization grid. Zero FLOPs by
    /// the plan convention; a pass boundary for the fusion executor.
    Quantize,
    /// Elementwise binary add (residual join).
    Add,
    /// Window or global reduction (pools).
    Reduce(ReduceKind),
    /// Data-movement-only reshape (zero FLOPs).
    Movement,
}

impl NodeOp {
    /// Whether the fusion executor may merge this node into an
    /// elementwise chain (shape-preserving, element-local; quantize is
    /// chain-legal but ends a pass segment).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            NodeOp::BatchNorm | NodeOp::Activation { .. } | NodeOp::Quantize | NodeOp::Add
        )
    }
}

/// One node of the lowered [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// Name, derived from the plan layer that lowered to this node.
    pub name: String,
    /// The operation.
    pub op: NodeOp,
    /// Indices of input nodes (always earlier in the node list).
    pub inputs: Vec<usize>,
    /// Output shape.
    pub out_shape: Vec<usize>,
    /// Row-major contiguous strides of the output.
    pub strides: Vec<usize>,
    /// Activation bit width carried past this node, when stamped by
    /// [`Graph::stamp_act_bits`]; `None` = full precision / unknown.
    pub bits: Option<u8>,
    /// Forward FLOPs of this node (plan conventions).
    pub flops: u64,
    /// Index of the top-level plan layer this node lowered from
    /// (`usize::MAX` for the input node).
    pub layer: usize,
}

/// The lowered static graph of a [`Plan`]: explicit nodes with shapes,
/// strides and FLOPs. This is the single source of truth for shape and
/// FLOP inference — `spec::Plan` delegates its per-layer interpreter
/// here — and the structure `cq-check` validates per configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    nodes: Vec<GraphNode>,
}

fn contiguous_strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

fn numel(dims: &[usize]) -> u64 {
    dims.iter().map(|&d| d as u64).product()
}

fn want_rank(name: &str, dims: &[usize], rank: usize) -> SpecResult<()> {
    if dims.len() != rank {
        return Err(SpecError {
            layer: name.to_string(),
            kind: SpecErrorKind::Rank {
                expected: rank,
                got: dims.len(),
            },
        });
    }
    Ok(())
}

fn want_axis1(name: &str, dims: &[usize], expected: usize, features: bool) -> SpecResult<()> {
    if dims[1] != expected {
        return Err(SpecError {
            layer: name.to_string(),
            kind: if features {
                SpecErrorKind::Features {
                    expected,
                    got: dims[1],
                }
            } else {
                SpecErrorKind::Channels {
                    expected,
                    got: dims[1],
                }
            },
        });
    }
    Ok(())
}

fn out_hw(name: &str, spec: &Conv2dSpec, h: usize, w: usize) -> SpecResult<(usize, usize)> {
    spec.out_hw(h, w).map_err(|e| SpecError {
        layer: name.to_string(),
        kind: SpecErrorKind::Geometry(e.to_string()),
    })
}

impl Graph {
    /// Lowers a plan at the given input shape, inferring and checking
    /// every node shape along the way.
    ///
    /// # Errors
    ///
    /// Returns the first layer-attributed [`SpecError`], exactly as
    /// [`Plan::infer`] does (it is the same inference).
    pub fn lower(plan: &Plan, input: &[usize]) -> SpecResult<Self> {
        let mut g = Graph::default();
        g.nodes.push(GraphNode {
            name: "input".into(),
            op: NodeOp::Input,
            inputs: Vec::new(),
            out_shape: input.to_vec(),
            strides: contiguous_strides(input),
            bits: None,
            flops: 0,
            layer: usize::MAX,
        });
        let mut cur = 0usize;
        for (li, layer) in plan.layers().iter().enumerate() {
            cur = lower_layer_into(&mut g, layer, cur, li)?;
        }
        Ok(g)
    }

    /// The nodes, in topological (append) order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Output shape of the graph (the last node's).
    pub fn output_shape(&self) -> &[usize] {
        &self.nodes[self.nodes.len() - 1].out_shape
    }

    /// Total forward FLOPs over all nodes.
    pub fn flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Sum of node FLOPs lowered from top-level plan layer `li`.
    pub fn layer_flops(&self, li: usize) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.layer == li)
            .map(|n| n.flops)
            .sum()
    }

    /// Stamps the activation bit width onto every [`NodeOp::Quantize`]
    /// node (metadata only; `None` clears).
    pub fn stamp_act_bits(&mut self, bits: Option<u8>) {
        for n in &mut self.nodes {
            if n.op == NodeOp::Quantize {
                n.bits = bits;
            }
        }
    }

    /// Structural validation: inputs precede their consumers, elementwise
    /// nodes preserve element count, add operands agree in shape.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            for &inp in &n.inputs {
                if inp >= i {
                    return Err(format!("node {i} `{}` consumes later node {inp}", n.name));
                }
            }
            if n.strides != contiguous_strides(&n.out_shape) {
                return Err(format!("node {i} `{}` has non-contiguous strides", n.name));
            }
            if n.op.is_elementwise() {
                let inp = n
                    .inputs
                    .first()
                    .copied()
                    .ok_or_else(|| format!("elementwise node {i} `{}` has no input", n.name))?;
                if numel(&self.nodes[inp].out_shape) != numel(&n.out_shape) {
                    return Err(format!(
                        "elementwise node {i} `{}` changes element count",
                        n.name
                    ));
                }
            }
            if n.op == NodeOp::Add {
                if n.inputs.len() != 2 {
                    return Err(format!("add node {i} `{}` is not binary", n.name));
                }
                let (a, b) = (n.inputs[0], n.inputs[1]);
                if self.nodes[a].out_shape != self.nodes[b].out_shape {
                    return Err(format!("add node {i} `{}` operand shapes differ", n.name));
                }
            }
        }
        Ok(())
    }

    /// The statically fusable elementwise chains: maximal runs of
    /// single-consumer elementwise nodes, as the runtime executor would
    /// flush them. Each chain is a list of node indices; only chains of
    /// length >= 2 are returned (a single node has nothing to fuse).
    pub fn fused_chains(&self) -> Vec<Vec<usize>> {
        let mut consumers = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                consumers[i] += 1;
            }
        }
        // Open chains keyed by tail node; graphs are small, linear scan.
        let mut open: Vec<Vec<usize>> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.op.is_elementwise() {
                continue;
            }
            // cq-allow(no-unwrap): chains are created non-empty and only ever grow
            let tail_of = |ch: &Vec<usize>| *ch.last().expect("chains are non-empty");
            match open
                .iter()
                .position(|ch| n.inputs.contains(&tail_of(ch)) && consumers[tail_of(ch)] == 1)
            {
                Some(k) => open[k].push(i),
                None => open.push(vec![i]),
            }
        }
        open.retain(|ch| ch.len() >= 2);
        open
    }
}

/// Lowers one plan layer into `g`, returning the index of its output
/// node. This is the shape/FLOP inference `spec::infer_layer` delegates
/// to; every check and formula below is the pinned Plan-IR behavior.
pub(crate) fn lower_layer_into(
    g: &mut Graph,
    layer: &LayerSpec,
    input: usize,
    li: usize,
) -> SpecResult<usize> {
    let name = layer.name.as_str();
    let dims = g.nodes[input].out_shape.clone();
    let push = |g: &mut Graph,
                name: String,
                op: NodeOp,
                inputs: Vec<usize>,
                out: Vec<usize>,
                flops: u64| {
        let strides = contiguous_strides(&out);
        g.nodes.push(GraphNode {
            name,
            op,
            inputs,
            out_shape: out,
            strides,
            bits: None,
            flops,
            layer: li,
        });
        g.nodes.len() - 1
    };
    match &layer.kind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec,
            bias,
        } => {
            want_rank(name, &dims, 4)?;
            want_axis1(name, &dims, *in_ch, false)?;
            let (oh, ow) = out_hw(name, spec, dims[2], dims[3])?;
            let out = vec![dims[0], *out_ch, oh, ow];
            let (kh, kw) = spec.kernel;
            let mut flops = 2 * numel(&out) * (*in_ch as u64) * (kh as u64) * (kw as u64);
            if *bias {
                flops += numel(&out);
            }
            Ok(push(
                g,
                name.to_string(),
                NodeOp::Conv {
                    depthwise: false,
                    spec: *spec,
                },
                vec![input],
                out,
                flops,
            ))
        }
        LayerKind::DepthwiseConv2d { channels, spec } => {
            want_rank(name, &dims, 4)?;
            want_axis1(name, &dims, *channels, false)?;
            let (oh, ow) = out_hw(name, spec, dims[2], dims[3])?;
            let out = vec![dims[0], *channels, oh, ow];
            let (kh, kw) = spec.kernel;
            let flops = 2 * numel(&out) * (kh as u64) * (kw as u64);
            Ok(push(
                g,
                name.to_string(),
                NodeOp::Conv {
                    depthwise: true,
                    spec: *spec,
                },
                vec![input],
                out,
                flops,
            ))
        }
        LayerKind::BatchNorm2d { channels } => {
            want_rank(name, &dims, 4)?;
            want_axis1(name, &dims, *channels, false)?;
            let flops = 2 * numel(&dims);
            Ok(push(
                g,
                name.to_string(),
                NodeOp::BatchNorm,
                vec![input],
                dims,
                flops,
            ))
        }
        LayerKind::BatchNorm1d { features } => {
            want_rank(name, &dims, 2)?;
            want_axis1(name, &dims, *features, true)?;
            let flops = 2 * numel(&dims);
            Ok(push(
                g,
                name.to_string(),
                NodeOp::BatchNorm,
                vec![input],
                dims,
                flops,
            ))
        }
        LayerKind::Linear {
            in_features,
            out_features,
            bias,
        } => {
            want_rank(name, &dims, 2)?;
            want_axis1(name, &dims, *in_features, true)?;
            let out = vec![dims[0], *out_features];
            let mut flops = 2 * (dims[0] as u64) * (*in_features as u64) * (*out_features as u64);
            if *bias {
                flops += numel(&out);
            }
            Ok(push(
                g,
                name.to_string(),
                NodeOp::Matmul,
                vec![input],
                out,
                flops,
            ))
        }
        LayerKind::Relu | LayerKind::Relu6 => {
            let clamp6 = matches!(layer.kind, LayerKind::Relu6);
            let flops = numel(&dims);
            let act = push(
                g,
                name.to_string(),
                NodeOp::Activation { clamp6 },
                vec![input],
                dims.clone(),
                flops,
            );
            // Post-activation fake-quant: zero FLOPs by plan convention,
            // a pass boundary for the fusion executor.
            Ok(push(
                g,
                format!("{name}.q"),
                NodeOp::Quantize,
                vec![act],
                dims,
                0,
            ))
        }
        LayerKind::MaxPool2d { spec } | LayerKind::AvgPool2d { spec } => {
            want_rank(name, &dims, 4)?;
            let (oh, ow) = out_hw(name, spec, dims[2], dims[3])?;
            let out = vec![dims[0], dims[1], oh, ow];
            let (kh, kw) = spec.kernel;
            let flops = numel(&out) * (kh as u64) * (kw as u64);
            let kind = if matches!(layer.kind, LayerKind::MaxPool2d { .. }) {
                ReduceKind::MaxWindow
            } else {
                ReduceKind::AvgWindow
            };
            Ok(push(
                g,
                name.to_string(),
                NodeOp::Reduce(kind),
                vec![input],
                out,
                flops,
            ))
        }
        LayerKind::GlobalAvgPool => {
            want_rank(name, &dims, 4)?;
            let flops = numel(&dims);
            let red = push(
                g,
                name.to_string(),
                NodeOp::Reduce(ReduceKind::GlobalAvg),
                vec![input],
                vec![dims[0], dims[1], 1, 1],
                flops,
            );
            Ok(push(
                g,
                format!("{name}.flatten"),
                NodeOp::Movement,
                vec![red],
                vec![dims[0], dims[1]],
                0,
            ))
        }
        LayerKind::Residual { main, skip } => {
            let mut m = input;
            for l in main.layers() {
                m = lower_layer_into(g, l, m, li)?;
            }
            let s = match skip {
                Some(p) => {
                    let mut s = input;
                    for l in p.layers() {
                        s = lower_layer_into(g, l, s, li)?;
                    }
                    s
                }
                None => input,
            };
            let (ms, ss) = (g.nodes[m].out_shape.clone(), g.nodes[s].out_shape.clone());
            if ms != ss {
                return Err(SpecError {
                    layer: name.to_string(),
                    kind: SpecErrorKind::BranchMismatch { main: ms, skip: ss },
                });
            }
            let flops = numel(&ms);
            Ok(push(
                g,
                format!("{name}.add"),
                NodeOp::Add,
                vec![m, s],
                ms,
                flops,
            ))
        }
        LayerKind::Block(p) => {
            let mut cur = input;
            for l in p.layers() {
                cur = lower_layer_into(g, l, cur, li)?;
            }
            Ok(cur)
        }
    }
}

/// Infers `(output shape, flops)` for one plan layer by lowering it into
/// a scratch graph — the delegate behind `spec::infer_layer`.
pub(crate) fn infer_layer_via_graph(
    layer: &LayerSpec,
    dims: &[usize],
) -> SpecResult<(Vec<usize>, u64)> {
    let mut g = Graph::default();
    g.nodes.push(GraphNode {
        name: "input".into(),
        op: NodeOp::Input,
        inputs: Vec::new(),
        out_shape: dims.to_vec(),
        strides: contiguous_strides(dims),
        bits: None,
        flops: 0,
        layer: usize::MAX,
    });
    let out = lower_layer_into(&mut g, layer, 0, 0)?;
    let flops = g.flops();
    Ok((g.nodes[out].out_shape.clone(), flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::par::with_thread_limit;
    use rand::Rng;
    use rand::SeedableRng;

    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect()
    }

    /// A representative chain: BN normalize+affine, residual add,
    /// ReLU with mask tap, trailing 5-bit fake-quant.
    fn chain(len: usize, c: usize, inner: usize, seed: u64) -> (Tensor, Vec<EwGroup>) {
        let x = Tensor::from_vec(randvec(len, seed), &[len]).unwrap();
        let mean = randvec(c, seed + 1);
        let inv_std: Vec<f32> = randvec(c, seed + 2).iter().map(|v| v.abs() + 0.1).collect();
        let scale = randvec(c, seed + 3);
        let shift = randvec(c, seed + 4);
        let skip = Tensor::from_vec(randvec(len, seed + 5), &[len]).unwrap();
        let groups = vec![
            EwGroup::new(
                vec![
                    EwOp::Normalize {
                        mean: mean.clone(),
                        inv_std: inv_std.clone(),
                    },
                    EwOp::Affine {
                        scale: scale.clone(),
                        shift: shift.clone(),
                    },
                ],
                Some((c, inner)),
            )
            .with_xhat_tap()
            .with_cache(|t| Cache::new(t.xhat.expect("xhat tap"))),
            EwGroup::new(vec![EwOp::Add(Arc::new(skip))], None),
            EwGroup::new(vec![EwOp::Relu], None)
                .with_mask_tap()
                .with_cache(|t| Cache::new(t.mask.expect("mask tap")))
                .with_quant(Precision::Bits(5), QuantMode::Round),
        ];
        (x, groups)
    }

    /// The pass-per-group reference: one `execute` call per group, each
    /// fed the previous call's output — the pass structure of running
    /// every layer through its own `Layer::forward`.
    fn per_group(x: Tensor, groups: Vec<EwGroup>) -> (Tensor, Vec<Option<Cache>>) {
        let mut y = x;
        let mut caches = Vec::new();
        for g in groups {
            let (next, c) = execute(y, vec![g]).unwrap();
            y = next;
            caches.extend(c);
        }
        (y, caches)
    }

    #[test]
    fn fused_matches_per_group_bitwise() {
        for &(len, c, inner) in &[(24usize, 2usize, 3usize), (8192, 4, 16), (12000, 3, 125)] {
            for threads in [1, 2, 5, 8] {
                let (x, gf) = chain(len, c, inner, 7);
                let (_, gr) = chain(len, c, inner, 7);
                let ((yf, cf), (yr, cr)) = with_thread_limit(threads, || {
                    (execute(x.clone(), gf).unwrap(), per_group(x, gr))
                });
                assert_eq!(yf.as_slice(), yr.as_slice(), "len={len} t={threads}");
                let xf = cf[0].as_ref().unwrap().downcast::<Tensor>("t").unwrap();
                let xr = cr[0].as_ref().unwrap().downcast::<Tensor>("t").unwrap();
                assert_eq!(xf.as_slice(), xr.as_slice());
                let mf = cf[2].as_ref().unwrap().downcast::<Mask>("t").unwrap();
                let mr = cr[2].as_ref().unwrap().downcast::<Mask>("t").unwrap();
                assert_eq!((&mf.words, &mf.dims), (&mr.words, &mr.dims));
            }
        }
    }

    /// Runs BN normalize+affine (xhat tap), a residual add, ReLU (mask),
    /// an affine and ReLU6 (mask) as one fused chain at `level`, and the
    /// same ops through the scalar oracle; outputs and taps must agree
    /// bit for bit.
    fn check_chain_against_oracle(level: SimdLevel, outer: usize, c: usize, inner: usize) {
        use crate::reference::{self as oracle, bits, hostile, Op};
        let len = outer * c * inner;
        let seed = (outer * 1000 + c * 10 + inner) as u64;
        let x = hostile(len, seed);
        let skip = hostile(len, seed + 1);
        let mean = hostile(c, seed + 2);
        let inv_std = hostile(c, seed + 3);
        let (scale, shift) = (hostile(c, seed + 4), hostile(c, seed + 5));
        let (scale2, shift2) = (hostile(c, seed + 6), hostile(c, seed + 7));

        let geom = Some((c, inner));
        let affine = |scale: &[f32], shift: &[f32]| EwOp::Affine {
            scale: scale.to_vec(),
            shift: shift.to_vec(),
        };
        let groups = vec![
            EwGroup::new(
                vec![
                    EwOp::Normalize {
                        mean: mean.clone(),
                        inv_std: inv_std.clone(),
                    },
                    affine(&scale, &shift),
                ],
                geom,
            )
            .with_xhat_tap()
            .with_cache(|t| Cache::new(t.xhat.expect("xhat tap"))),
            EwGroup::new(vec![EwOp::Add(Arc::new(Tensor::from_slice(&skip)))], None),
            EwGroup::new(vec![EwOp::Relu], None)
                .with_mask_tap()
                .with_cache(|t| Cache::new(t.mask.expect("mask tap"))),
            EwGroup::new(vec![affine(&scale2, &shift2)], geom),
            EwGroup::new(vec![EwOp::Relu6], None)
                .with_mask_tap()
                .with_cache(|t| Cache::new(t.mask.expect("mask tap"))),
        ];
        let (y, caches) = execute_at(level, Tensor::from_slice(&x), groups).unwrap();

        let mut want = x.clone();
        let mut xhat = vec![0.0; len];
        let mut relu_mask = vec![0.0; len];
        let mut relu6_mask = vec![0.0; len];
        let norm = Op::Normalize {
            mean: &mean,
            inv_std: &inv_std,
            c,
            inner,
        };
        oracle::apply_op(&norm, &mut want, Some(&mut xhat));
        let aff = |scale, shift| Op::Affine {
            scale,
            shift,
            c,
            inner,
        };
        oracle::apply_op(&aff(&scale, &shift), &mut want, None);
        oracle::apply_op(&Op::Add(&skip), &mut want, None);
        oracle::apply_op(&Op::Relu, &mut want, Some(&mut relu_mask));
        oracle::apply_op(&aff(&scale2, &shift2), &mut want, None);
        oracle::apply_op(&Op::Relu6, &mut want, Some(&mut relu6_mask));

        let at = format!("{level:?} outer={outer} c={c} inner={inner}");
        assert_eq!(bits(y.as_slice()), bits(&want), "output {at}");
        let xh = caches[0].as_ref().unwrap().downcast::<Tensor>("t").unwrap();
        assert_eq!(bits(xh.as_slice()), bits(&xhat), "xhat {at}");
        for (gi, m) in [(2, &relu_mask), (4, &relu6_mask)] {
            let got = caches[gi].as_ref().unwrap().downcast::<Mask>("t").unwrap();
            assert_eq!(got.dims, [len], "{at}");
            assert_eq!(got.words.len(), len.div_ceil(MASK_WORD), "{at}");
            for (i, &w) in m.iter().enumerate() {
                let bit = (got.words[i / MASK_WORD] >> (i % MASK_WORD)) & 1 != 0;
                assert_eq!(bit, w == 1.0, "mask {gi} element {i} {at}");
            }
            // Bits past the last element stay clear.
            let tail = len % MASK_WORD;
            if tail != 0 {
                assert_eq!(got.words[len / MASK_WORD] >> tail, 0, "tail {at}");
            }
        }
    }

    /// The `xhat` tap, the mask words and the chain input land in
    /// recycled buffers that the pass must overwrite in full. Each shape
    /// runs right after another of the same length (2^19 + 4 elements,
    /// so the mask words are recycled too, with a partial last word)
    /// left its values there.
    // Recycled buffers are 64 KiB and up: too large for Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn fused_pass_into_recycled_buffers_matches_the_scalar_oracle() {
        let level = SimdLevel::detect();
        for (outer, c, inner) in [
            (2, 6, 43_691),
            (4, 3, 43_691),
            (12, 1, 43_691),
            (2, 6, 43_691),
        ] {
            check_chain_against_oracle(level, outer, c, inner);
        }
    }

    #[test]
    fn fused_pass_matches_the_scalar_oracle() {
        let mut shapes = Vec::new();
        for c in crate::reference::CHANNELS {
            for inner in crate::reference::INNER {
                shapes.push((3, c, inner));
            }
        }
        // Chunk boundaries that fall inside a channel segment, and
        // lengths that end inside a mask word.
        shapes.extend([(2, 5, 999), (1, 1, 33), (7, 3, 37), (0, 4, 4)]);
        for level in SimdLevel::supported() {
            for threads in crate::reference::THREADS {
                for &(outer, c, inner) in &shapes {
                    with_thread_limit(threads, || {
                        check_chain_against_oracle(level, outer, c, inner)
                    });
                }
            }
        }
    }

    #[test]
    fn a_tap_that_no_op_writes_is_rejected() {
        let x = Tensor::from_slice(&[1.0, -1.0]);
        let g = EwGroup::new(vec![EwOp::Relu], None).with_xhat_tap();
        assert!(execute(x.clone(), vec![g]).is_err());
        let g = EwGroup::new(
            vec![EwOp::Affine {
                scale: vec![1.0],
                shift: vec![0.0],
            }],
            Some((1, 1)),
        )
        .with_mask_tap();
        assert!(execute(x, vec![g]).is_err());
    }

    #[test]
    fn chunked_in_pass_scan_equals_whole_buffer_scan() {
        // Several chunks plus a ragged tail, with exact zeros (ReLU) and,
        // in the second case, a NaN and an Inf: the chunk partials merged
        // in chunk order must quantize exactly like one whole-buffer scan.
        let len = 3 * BLOCK_ELEMS + 37;
        let other = randvec(len, 21);
        let mut poisoned = randvec(len, 22);
        poisoned[5] = f32::NAN;
        poisoned[2 * BLOCK_ELEMS + 1] = f32::INFINITY;
        for src in [randvec(len, 20), poisoned] {
            for limit in [1, 3] {
                let mut buf = src.clone();
                let ops = [KOp::Add { other: &other }, KOp::Relu { mask: None }];
                let level = SimdLevel::detect();
                let scan = with_thread_limit(limit, || run_pass(level, &mut buf, &ops, true, None))
                    .unwrap();
                let whole = RangeScan::scan(&buf);
                assert!(scan.lo() == whole.lo() && scan.hi() == whole.hi());
                for (p, m) in [(5, QuantMode::Round), (8, QuantMode::Floor)] {
                    let mut a = buf.clone();
                    let mut b = buf.clone();
                    cq_quant::fake_quant_scanned(&mut a, scan, Precision::Bits(p), m);
                    cq_quant::fake_quant_scanned(&mut b, whole, Precision::Bits(p), m);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "limit {limit} q={p} {m:?}");
                }
            }
        }
    }

    #[test]
    fn execution_is_thread_count_invariant() {
        let (x, g1) = chain(40_000, 8, 25, 11);
        let baseline = with_thread_limit(1, || execute(x, g1).unwrap().0);
        for threads in [2, 5, 8] {
            let (x, g) = chain(40_000, 8, 25, 11);
            let y = with_thread_limit(threads, || execute(x, g).unwrap().0);
            assert_eq!(baseline.as_slice(), y.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn quant_splits_fused_segments() {
        // Two groups with a quant in the middle: the fused chain must
        // still materialize before quantizing, so it equals the
        // pass-per-group reference.
        let x = Tensor::from_vec(randvec(600, 3), &[600]).unwrap();
        let mk = || {
            vec![
                EwGroup::new(vec![EwOp::Relu], None)
                    .with_quant(Precision::Bits(3), QuantMode::Round)
                    .with_mask_tap()
                    .with_cache(|t| Cache::new(t.mask.expect("mask"))),
                EwGroup::new(
                    vec![EwOp::Affine {
                        scale: vec![2.0],
                        shift: vec![-1.0],
                    }],
                    Some((1, 1)),
                ),
            ]
        };
        let (yf, cf) = execute(x.clone(), mk()).unwrap();
        let (yr, cr) = per_group(x, mk());
        assert_eq!(yf.as_slice(), yr.as_slice());
        let mf = cf[0].as_ref().unwrap().downcast::<Mask>("t").unwrap();
        let mr = cr[0].as_ref().unwrap().downcast::<Mask>("t").unwrap();
        assert_eq!(mf.words, mr.words);
    }

    #[test]
    fn geometry_and_operand_validation() {
        let x = Tensor::from_vec(vec![1.0; 10], &[10]).unwrap();
        let bad_geom = vec![EwGroup::new(
            vec![EwOp::Affine {
                scale: vec![1.0; 3],
                shift: vec![0.0; 3],
            }],
            Some((3, 1)),
        )];
        assert!(execute(x.clone(), bad_geom).is_err());
        let bad_add = vec![EwGroup::new(
            vec![EwOp::Add(Arc::new(
                Tensor::from_vec(vec![0.0; 4], &[4]).unwrap(),
            ))],
            None,
        )];
        assert!(execute(x, bad_add).is_err());
    }

    #[test]
    fn fusion_counters_account_passes() {
        // Counters only tick with a sink installed; parallel tests share
        // the globals, so assert on deltas with >= bounds.
        let sink = std::sync::Arc::new(cq_obs::sink::MemorySink::new());
        cq_obs::install(sink);
        let get = |n: &str| {
            cq_obs::counter_totals()
                .iter()
                .find(|(k, _)| *k == n)
                .map_or(0, |&(_, v)| v)
        };
        let (chains0, elided0) = (get("graph.fused_chains"), get("fusion.pass_elided_bytes"));
        let (x, g) = chain(512, 2, 4, 21);
        execute(x, g).unwrap();
        assert!(get("graph.fused_chains") > chains0);
        // 3 groups -> 1 fused pass: 2 elided passes * 512 elems * 8 bytes.
        assert!(get("fusion.pass_elided_bytes") >= elided0 + 2 * 512 * 8);
        cq_obs::uninstall();
    }

    // -- static graph --------------------------------------------------

    fn conv_kind(i: usize, o: usize, k: usize, s: usize, p: usize) -> LayerKind {
        LayerKind::Conv2d {
            in_ch: i,
            out_ch: o,
            spec: Conv2dSpec::new(k, s, p),
            bias: false,
        }
    }

    #[test]
    fn lowering_matches_plan_inference() {
        let mut p = Plan::new();
        p.push("c1", conv_kind(3, 8, 3, 1, 1));
        p.push("bn", LayerKind::BatchNorm2d { channels: 8 });
        p.push("relu", LayerKind::Relu);
        p.push("gap", LayerKind::GlobalAvgPool);
        p.push(
            "fc",
            LayerKind::Linear {
                in_features: 8,
                out_features: 4,
                bias: true,
            },
        );
        let input = [2usize, 3, 16, 16];
        let g = Graph::lower(&p, &input).unwrap();
        g.validate().unwrap();
        assert_eq!(g.output_shape(), p.infer(&input).unwrap().as_slice());
        assert_eq!(g.flops(), p.flops(&input).unwrap());
        // Per-layer FLOPs agree with the trace.
        for (li, r) in p.trace(&input).unwrap().iter().enumerate() {
            assert_eq!(g.layer_flops(li), r.flops, "layer {}", r.name);
        }
        // Node inventory: input, conv, bn, act, quant, reduce, movement,
        // matmul.
        assert_eq!(g.nodes().len(), 8);
        assert!(g.nodes().iter().any(|n| n.op == NodeOp::Quantize));
        assert_eq!(g.nodes()[1].strides, vec![8 * 16 * 16, 16 * 16, 16, 1]);
    }

    #[test]
    fn residual_lowering_flattens_branches() {
        let mut main = Plan::new();
        main.push("m.conv", conv_kind(4, 8, 3, 2, 1));
        main.push("m.bn", LayerKind::BatchNorm2d { channels: 8 });
        let mut skip = Plan::new();
        skip.push("s.conv", conv_kind(4, 8, 1, 2, 0));
        let mut p = Plan::new();
        p.push(
            "block",
            LayerKind::Residual {
                main,
                skip: Some(skip),
            },
        );
        p.push("relu", LayerKind::Relu);
        let input = [2usize, 4, 8, 8];
        let g = Graph::lower(&p, &input).unwrap();
        g.validate().unwrap();
        assert_eq!(g.flops(), p.flops(&input).unwrap());
        let add = g
            .nodes()
            .iter()
            .find(|n| n.op == NodeOp::Add)
            .expect("add node");
        assert_eq!(add.inputs.len(), 2);
        assert_eq!(add.out_shape, vec![2, 8, 4, 4]);
        // bn2 -> add -> relu -> quant is one fusable chain.
        let chains = g.fused_chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 4);
    }

    #[test]
    fn lowering_reports_branch_mismatch_at_residual() {
        let mut main = Plan::new();
        main.push("m.conv", conv_kind(4, 8, 3, 2, 1));
        let mut p = Plan::new();
        p.push("block", LayerKind::Residual { main, skip: None });
        let err = Graph::lower(&p, &[2, 4, 8, 8]).unwrap_err();
        assert_eq!(err.layer, "block");
        assert!(matches!(err.kind, SpecErrorKind::BranchMismatch { .. }));
    }

    #[test]
    fn stamp_act_bits_tags_quantize_nodes() {
        let mut p = Plan::new();
        p.push("relu", LayerKind::Relu);
        let mut g = Graph::lower(&p, &[2, 4]).unwrap();
        g.stamp_act_bits(Some(8));
        let q = g.nodes().iter().find(|n| n.op == NodeOp::Quantize).unwrap();
        assert_eq!(q.bits, Some(8));
        assert!(g
            .nodes()
            .iter()
            .all(|n| n.op == NodeOp::Quantize || n.bits.is_none()));
    }
}
