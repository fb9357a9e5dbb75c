//! Batch normalisation for NCHW feature maps ([`BatchNorm2d`]) and
//! `[N, C]` feature vectors ([`BatchNorm1d`], used in projection heads).
//!
//! BatchNorm runs in full precision regardless of the quantization config
//! (standard QAT practice: BN is folded into the preceding conv at
//! deployment). Running statistics are layer state, returned by
//! [`Layer::state_tensors`] for checkpointing and BYOL target copies.
//!
//! The normalize+affine sweep runs in the fused graph executor
//! ([`crate::graph`]). The batch statistics and the backward are kernels
//! here, bit-identical to the scalar loops in [`crate::reference`]:
//!
//! - **Statistics.** The tensor is `outer · channels` slices of `inner`
//!   elements. Each slice sum is its own chain, from f32 `Sum`'s `−0.0`
//!   identity in index order, and is then added to its channel's total in
//!   `o` order. [`CHAINS`] consecutive slices are summed at once as
//!   independent chains; a slice is never folded into the running total,
//!   which would round differently.
//! - **Backward reduction.** `dgamma`/`dbeta` stay one running chain per
//!   channel in `o`-then-`k` order, held in registers for [`CHAINS`]
//!   channels at a time.
//! - **`dX` sweep.** A zip over each slice with `is / m` hoisted, written
//!   into a recycled buffer that is not zero-filled first, compiled at
//!   every [`SimdLevel`].
//!
//! A `BatchNorm2d` input in the lane layout (`cq_tensor::lanes`, as
//! inside an encoder) is `(⌈N/16⌉, C, H·W·16)` for the sweeps, and its
//! reductions read the lanes in place:
//!
//! - **Statistics.** Each lane of a `(block, channel)` run of `H·W`
//!   lanes is one `(image, channel)` slice, so one 16-lane vector chain
//!   from `−0.0` over ascending positions is 16 of the slice chains
//!   above, bit for bit, and the 16 slice sums go into their channel's
//!   total in image order, pad lanes left out: the same sums in the same
//!   order. Compiled at every [`SimdLevel`].
//! - **Backward reduction.** The same per-channel chains in
//!   (image, position) order, reading each image's lane at a stride of
//!   16 floats and skipping pad lanes.
//!
//! The backward reductions are scalar chains by contract, so a wider
//! vector has nothing to add to them and they are not dispatched.

use cq_tensor::lanes::{block_images, ChannelLanes, LANES};
use cq_tensor::simd::{dispatch, Body, SimdLevel};
use cq_tensor::Tensor;

use crate::graph::{execute_single, EwGroup, EwOp, Recorder};
use crate::{Cache, ForwardCtx, GradSet, Layer, Mode, NnError, ParamId, ParamSet, Result};

/// Independent chains the statistics and backward-reduction kernels run
/// at once: enough to cover the latency of a dependent f32 add.
const CHAINS: usize = 8;

/// Per-channel totals of `term(v, param(channel))` over `xs` viewed as
/// `(outer, c, inner)`: each `(o, c)` slice is summed as its own chain
/// from `−0.0` in index order ([`CHAINS`] slices at a time), then added to
/// its channel's total, which starts at `+0.0`, in `o` order.
fn channel_sums(
    xs: &[f32],
    c: usize,
    inner: usize,
    param: impl Fn(usize) -> f32,
    term: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let mut total = vec![0.0f32; c];
    let mut ci = 0;
    let next = |ci: &mut usize| {
        let cur = *ci;
        *ci = if cur + 1 == c { 0 } else { cur + 1 };
        cur
    };
    let mut groups = xs.chunks_exact(CHAINS * inner);
    for g in &mut groups {
        let chans: [usize; CHAINS] = std::array::from_fn(|_| next(&mut ci));
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|j| &g[j * inner..(j + 1) * inner]);
        let ps: [f32; CHAINS] = std::array::from_fn(|j| param(chans[j]));
        let mut acc = [-0.0f32; CHAINS];
        // `k` steps every row in lockstep, one element per chain.
        #[allow(clippy::needless_range_loop)]
        for k in 0..inner {
            for j in 0..CHAINS {
                acc[j] += term(rows[j][k], ps[j]);
            }
        }
        for (&ch, a) in chans.iter().zip(acc) {
            total[ch] += a;
        }
    }
    for row in groups.remainder().chunks_exact(inner) {
        let ch = next(&mut ci);
        let p = param(ch);
        total[ch] += row.iter().fold(-0.0f32, |a, &v| a + term(v, p));
    }
    total
}

/// `(mean, biased var)` per channel of `xs` viewed as
/// `(outer, c, inner)`.
fn batch_stats(xs: &[f32], outer: usize, c: usize, inner: usize) -> (Vec<f32>, Vec<f32>) {
    let m = (outer * inner) as f32;
    let mut mean = channel_sums(xs, c, inner, |_| 0.0, |v, _| v);
    for v in &mut mean {
        *v /= m;
    }
    let mut var = channel_sums(xs, c, inner, |ch| mean[ch], |v, mu| (v - mu) * (v - mu));
    for v in &mut var {
        *v /= m;
    }
    (mean, var)
}

/// Per-channel totals of `term(v, param(channel))` over the lane storage
/// `xs` of an `[n, c, hw]` batch (see the module docs), compiled at
/// every [`SimdLevel`].
struct LaneSums<'a, P, F> {
    xs: &'a [f32],
    n: usize,
    c: usize,
    hw: usize,
    param: P,
    term: F,
}

impl<P: Fn(usize) -> f32, F: Fn(f32, f32) -> f32> Body for LaneSums<'_, P, F> {
    type Out = Vec<f32>;
    #[inline(always)]
    fn run<const L: usize>(self) -> Vec<f32> {
        let LaneSums {
            xs,
            n,
            c,
            hw,
            param,
            term,
        } = self;
        let mut total = vec![0.0f32; c];
        let (lanes, _) = xs.as_chunks::<LANES>();
        for (b, block) in lanes.chunks_exact(c * hw).enumerate() {
            let nimg = block_images(n, b).1;
            for ((t, plane), ch) in total.iter_mut().zip(block.chunks_exact(hw)).zip(0..) {
                // One 16-image vector chain: 16 slice chains at once.
                let pc = param(ch);
                let mut acc = [-0.0f32; LANES];
                for px in plane {
                    for l in 0..LANES {
                        acc[l] += term(px[l], pc);
                    }
                }
                for &slice in &acc[..nimg] {
                    *t += slice;
                }
            }
        }
        total
    }
}

/// `(mean, biased var)` per channel of the lane storage `xs` of an
/// `[n, c, hw]` batch, bit-identical to [`batch_stats`] of its NCHW form.
fn lane_batch_stats(
    level: SimdLevel,
    xs: &[f32],
    n: usize,
    c: usize,
    hw: usize,
) -> (Vec<f32>, Vec<f32>) {
    let m = (n * hw) as f32;
    let mut mean = dispatch(
        level,
        LaneSums {
            xs,
            n,
            c,
            hw,
            param: |_| 0.0,
            term: |v, _| v,
        },
    );
    for v in &mut mean {
        *v /= m;
    }
    let mut var = dispatch(
        level,
        LaneSums {
            xs,
            n,
            c,
            hw,
            param: |ch| mean[ch],
            term: |v, mu| (v - mu) * (v - mu),
        },
    );
    for v in &mut var {
        *v /= m;
    }
    (mean, var)
}

/// Per-channel `(dgamma, dbeta)` of the lane storage `dy` and `xhat` of
/// an `[n, c, hw]` batch: one chain per channel in (image, position)
/// order from `+0.0`, as [`grad_sums`] of the NCHW form. Each full group
/// of 16 channels runs as 16-lane vector chains over a channel-minor
/// copy of each lane block ([`GroupSums`]); the channels past the last
/// full group read each image's lane at a stride of 16 floats,
/// [`LANE_CHAINS`] channels at a time.
fn lane_grad_sums(
    level: SimdLevel,
    dy: &[f32],
    xhat: &[f32],
    n: usize,
    c: usize,
    hw: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    let groups = c - c % LANES;
    if groups > 0 {
        let body = GroupSums {
            level,
            dy,
            xhat,
            n,
            c,
            hw,
            dgamma: &mut dgamma[..groups],
            dbeta: &mut dbeta[..groups],
        };
        dispatch(level, body);
    }
    let full = groups + (c - groups) / LANE_CHAINS * LANE_CHAINS;
    for c0 in (groups..full).step_by(LANE_CHAINS) {
        lane_reduce_channels::<LANE_CHAINS>(dy, xhat, (n, c, hw), c0, &mut dgamma, &mut dbeta);
    }
    for c0 in full..c {
        lane_reduce_channels::<1>(dy, xhat, (n, c, hw), c0, &mut dgamma, &mut dbeta);
    }
    (dgamma, dbeta)
}

/// [`lane_grad_sums`] of the channels `0..dgamma.len()`, a multiple of
/// 16: per group of 16 channels and lane block, `dy` and `xhat` are
/// copied channel-minor ([`ChannelLanes`]), and lane `j` of one vector
/// chain over the copy's real images and positions, in that order, is
/// channel `c0 + j`'s chain.
struct GroupSums<'a> {
    level: SimdLevel,
    dy: &'a [f32],
    xhat: &'a [f32],
    n: usize,
    c: usize,
    hw: usize,
    dgamma: &'a mut [f32],
    dbeta: &'a mut [f32],
}

impl Body for GroupSums<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let GroupSums {
            level,
            dy,
            xhat,
            n,
            c,
            hw,
            dgamma,
            dbeta,
        } = self;
        let block = c * hw * LANES;
        let (mut dys, mut xhs) = (ChannelLanes::new(level, hw), ChannelLanes::new(level, hw));
        let sums = dgamma
            .chunks_exact_mut(LANES)
            .zip(dbeta.chunks_exact_mut(LANES));
        for (g, (dgamma, dbeta)) in sums.enumerate() {
            let (mut dg, mut db) = ([0.0f32; LANES], [0.0f32; LANES]);
            for b in 0..n.div_ceil(LANES) {
                let images = block_images(n, b).1;
                dys.fill(&dy[b * block..][..block], g * LANES, images);
                xhs.fill(&xhat[b * block..][..block], g * LANES, images);
                for i in 0..images {
                    for (d, x) in dys.image(i).iter().zip(xhs.image(i)) {
                        for j in 0..LANES {
                            // cq-allow(no-naive-hot-loop): 16 per-channel reduction chains as one vector; output is a length-c vector, not a matmul
                            dg[j] += d[j] * x[j];
                            db[j] += d[j];
                        }
                    }
                }
            }
            dgamma.copy_from_slice(&dg);
            dbeta.copy_from_slice(&db);
        }
    }
}

/// Channels the strided lane backward reduction runs at once: fewer
/// than [`CHAINS`], so that their planes stay in cache while each
/// image's lane is read across them.
const LANE_CHAINS: usize = 4;

/// [`lane_grad_sums`] of channels `c0..c0 + W`, read at a stride.
fn lane_reduce_channels<const W: usize>(
    dy: &[f32],
    xhat: &[f32],
    (n, c, hw): (usize, usize, usize),
    c0: usize,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let (mut dg, mut db) = ([0.0f32; W], [0.0f32; W]);
    let plane = hw * LANES;
    for b in 0..n.div_ceil(LANES) {
        let at = (b * c + c0) * plane;
        let dys: [&[f32]; W] = std::array::from_fn(|j| &dy[at + j * plane..][..plane]);
        let xhs: [&[f32]; W] = std::array::from_fn(|j| &xhat[at + j * plane..][..plane]);
        for l in 0..block_images(n, b).1 {
            for i in (l..plane).step_by(LANES) {
                for j in 0..W {
                    // cq-allow(no-naive-hot-loop): per-channel reduction over (image, position); output is a length-c vector, not a matmul
                    dg[j] += dys[j][i] * xhs[j][i];
                    db[j] += dys[j][i];
                }
            }
        }
    }
    dgamma[c0..c0 + W].copy_from_slice(&dg);
    dbeta[c0..c0 + W].copy_from_slice(&db);
}

/// Per-channel `(dgamma, dbeta)` = `(Σ dy·xhat, Σ dy)`, one chain per
/// channel in `o`-then-`k` order from `+0.0`, `W` channels at a time.
fn reduce_channels<const W: usize>(
    dy: &[f32],
    xh: &[f32],
    c: usize,
    inner: usize,
    c0: usize,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let (mut dg, mut db) = ([0.0f32; W], [0.0f32; W]);
    let outer = dy.len() / (c * inner);
    for o in 0..outer {
        let base = (o * c + c0) * inner;
        let (dyo, xho) = (&dy[base..base + W * inner], &xh[base..base + W * inner]);
        let dys: [&[f32]; W] = std::array::from_fn(|j| &dyo[j * inner..(j + 1) * inner]);
        let xhs: [&[f32]; W] = std::array::from_fn(|j| &xho[j * inner..(j + 1) * inner]);
        for k in 0..inner {
            for j in 0..W {
                // cq-allow(no-naive-hot-loop): per-channel reduction over (outer, inner); output is a length-c vector, not a matmul
                dg[j] += dys[j][k] * xhs[j][k];
                db[j] += dys[j][k];
            }
        }
    }
    dgamma[c0..c0 + W].copy_from_slice(&dg);
    dbeta[c0..c0 + W].copy_from_slice(&db);
}

/// `(dgamma, dbeta)` of `dy` and `xhat` viewed as `(outer, c, inner)`.
fn grad_sums(dy: &[f32], xhat: &[f32], c: usize, inner: usize) -> (Vec<f32>, Vec<f32>) {
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    let full = c - c % CHAINS;
    for c0 in (0..full).step_by(CHAINS) {
        reduce_channels::<CHAINS>(dy, xhat, c, inner, c0, &mut dgamma, &mut dbeta);
    }
    for c0 in full..c {
        reduce_channels::<1>(dy, xhat, c, inner, c0, &mut dgamma, &mut dbeta);
    }
    (dgamma, dbeta)
}

/// The BatchNorm input gradient, one zip per `(o, c)` slice.
struct DxSweep<'a> {
    dy: &'a [f32],
    xhat: &'a [f32],
    gamma: &'a [f32],
    inv_std: &'a [f32],
    dgamma: &'a [f32],
    dbeta: &'a [f32],
    inner: usize,
    /// Elements per channel, `outer · inner`.
    m: f32,
    train: bool,
    dx: &'a mut [f32],
}

impl Body for DxSweep<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let DxSweep {
            dy,
            xhat,
            gamma,
            inv_std,
            dgamma,
            dbeta,
            inner,
            m,
            train,
            dx,
        } = self;
        let c = gamma.len();
        let slices = dy
            .chunks_exact(inner)
            .zip(xhat.chunks_exact(inner))
            .zip(dx.chunks_exact_mut(inner));
        let mut ci = 0;
        for ((dys, xhs), dxs) in slices {
            let (is, gc) = (inv_std[ci], gamma[ci]);
            if train {
                let is_m = is / m;
                let sum_dxhat = dbeta[ci] * gc;
                let sum_dxhat_xhat = dgamma[ci] * gc;
                for ((o, &d), &x) in dxs.iter_mut().zip(dys).zip(xhs) {
                    *o = is_m * (m * (d * gc) - sum_dxhat - x * sum_dxhat_xhat);
                }
            } else {
                let coef = gc * is;
                for (o, &d) in dxs.iter_mut().zip(dys) {
                    *o = d * coef;
                }
            }
            ci = if ci + 1 == c { 0 } else { ci + 1 };
        }
    }
}

/// Shared implementation: normalisation over the channel axis of data laid
/// out as `(outer, channels, inner)`.
#[derive(Debug)]
struct BatchNormInner {
    gamma: ParamId,
    beta: ParamId,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    momentum: f32,
    eps: f32,
}

/// Forward trace of a batch-norm layer.
struct BnCache {
    /// In the input's layout.
    xhat: Tensor,
    inv_std: Vec<f32>,
    /// The storage's `(outer, channels, inner)` view.
    outer: usize,
    inner: usize,
    mode: Mode,
}

impl BatchNormInner {
    fn new(ps: &mut ParamSet, name: &str, channels: usize, momentum: f32, eps: f32) -> Self {
        let gamma = ps.add(format!("{name}.gamma"), Tensor::ones(&[channels]));
        let beta = ps.add(format!("{name}.beta"), Tensor::zeros(&[channels]));
        BatchNormInner {
            gamma,
            beta,
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            channels,
            momentum,
            eps,
        }
    }

    /// Builds the recorded op group for `x`, whose storage is viewed as
    /// `(outer, channels, inner)` row-major: batch statistics (and the
    /// running-stat EMA update, in train mode) are computed eagerly here —
    /// they are whole-tensor reductions, read from the lanes of a lane
    /// tensor — while the normalize+affine sweep itself becomes a
    /// fusable [`EwGroup`] whose cache captures the `xhat` tap.
    fn make_group(
        &mut self,
        ps: &ParamSet,
        x: &Tensor,
        outer: usize,
        inner: usize,
        ctx: &ForwardCtx,
        layer_name: &str,
    ) -> Result<EwGroup> {
        let c = self.channels;
        debug_assert_eq!(x.len(), outer * c * inner);
        let xs = x.as_slice();

        let (mean, var) = match ctx.mode {
            Mode::Train => {
                if x.shape().len() < 2 * c {
                    return Err(NnError::BadInput {
                        layer: layer_name.to_string(),
                        expected: "batch with >= 2 elements per channel in train mode".into(),
                        got: x.dims().to_vec(),
                    });
                }
                let (mean, var) = match x.dims() {
                    &[n, _, h, w] if x.is_lanes() => {
                        lane_batch_stats(SimdLevel::detect(), xs, n, c, h * w)
                    }
                    _ => batch_stats(xs, outer, c, inner),
                };
                // EMA update of running statistics.
                let mom = self.momentum;
                for ((rm, rv), (&mu, &va)) in self
                    .running_mean
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.running_var.as_mut_slice())
                    .zip(mean.iter().zip(&var))
                {
                    *rm = (1.0 - mom) * *rm + mom * mu;
                    *rv = (1.0 - mom) * *rv + mom * va;
                }
                (mean, var)
            }
            Mode::Eval => (
                self.running_mean.as_slice().to_vec(),
                self.running_var.as_slice().to_vec(),
            ),
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let scale = ps.get(self.gamma).as_slice().to_vec();
        let shift = ps.get(self.beta).as_slice().to_vec();
        let mode = ctx.mode;
        Ok(EwGroup::new(
            vec![
                EwOp::Normalize {
                    mean,
                    inv_std: inv_std.clone(),
                },
                EwOp::Affine { scale, shift },
            ],
            Some((c, inner)),
        )
        .with_xhat_tap()
        .with_cache(move |taps| {
            Cache::new(BnCache {
                // cq-allow(no-unwrap): the group requests an xhat tap two lines up
                xhat: taps.xhat.expect("batch-norm group requests an xhat tap"),
                inv_std,
                outer,
                inner,
                mode,
            })
        }))
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
        layer_name: &str,
    ) -> Result<Tensor> {
        self.backward_at(SimdLevel::detect(), ps, cache, dy, gs, layer_name)
    }

    /// [`BatchNormInner::backward`] with the kernel compiled at `level`.
    fn backward_at(
        &self,
        level: SimdLevel,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
        layer_name: &str,
    ) -> Result<Tensor> {
        let cch = cache.downcast::<BnCache>(layer_name)?;
        let (len, c) = (dy.len(), self.channels);
        if cch.inv_std.len() != c {
            return Err(NnError::CacheMismatch {
                layer: layer_name.to_string(),
            });
        }
        if dy.dims() != cch.xhat.dims() {
            return Err(NnError::BadInput {
                layer: format!("{layer_name}.backward"),
                expected: format!("{:?}", cch.xhat.dims()),
                got: dy.dims().to_vec(),
            });
        }
        if dy.layout() != cch.xhat.layout() {
            return Err(NnError::BadInput {
                layer: format!("{layer_name}.backward"),
                expected: format!(
                    "{:?} in the {:?} layout",
                    cch.xhat.dims(),
                    cch.xhat.layout()
                ),
                got: dy.dims().to_vec(),
            });
        }
        let mut dx = dy.written_like();
        let (dy, xhat) = (dy.as_slice(), cch.xhat.as_slice());
        // The sweep below writes every element only if its slices tile
        // the buffer.
        assert!(cch.inner > 0 && len == cch.outer * c * cch.inner);
        let (dgamma, dbeta) = match cch.xhat.dims() {
            &[n, _, h, w] if cch.xhat.is_lanes() => lane_grad_sums(level, dy, xhat, n, c, h * w),
            _ => grad_sums(dy, xhat, c, cch.inner),
        };
        dispatch(
            level,
            DxSweep {
                dy,
                xhat,
                gamma: ps.get(self.gamma).as_slice(),
                inv_std: &cch.inv_std,
                dgamma: &dgamma,
                dbeta: &dbeta,
                inner: cch.inner,
                // Real elements per channel: pad lanes are not counted.
                m: (cch.xhat.shape().len() / c) as f32,
                train: cch.mode == Mode::Train,
                dx: dx.as_mut_slice(),
            },
        );
        gs.accumulate(self.gamma, &Tensor::from_vec(dgamma, &[c])?)?;
        gs.accumulate(self.beta, &Tensor::from_vec(dbeta, &[c])?)?;
        Ok(dx)
    }
}

/// Batch normalisation over the channel axis of `[N, C, H, W]` inputs,
/// in either layout; the output is in the input's.
#[derive(Debug)]
pub struct BatchNorm2d {
    inner: BatchNormInner,
}

impl BatchNorm2d {
    /// Creates a 2-D batch norm with the given channel count
    /// (momentum 0.1, eps 1e-5 — the standard defaults).
    pub fn new(ps: &mut ParamSet, name: &str, channels: usize) -> Self {
        BatchNorm2d {
            inner: BatchNormInner::new(ps, name, channels, 0.1, 1e-5),
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.inner.channels
    }

    /// Validates an `[N, C, H, W]` input and returns the
    /// `(outer, inner)` view of the channel axis in its storage.
    fn view(&self, x: &Tensor) -> Result<(usize, usize)> {
        if x.rank() != 4 || x.dims()[1] != self.inner.channels {
            return Err(NnError::BadInput {
                layer: format!("BatchNorm2d({})", self.inner.channels),
                expected: format!("[N, {}, H, W]", self.inner.channels),
                got: x.dims().to_vec(),
            });
        }
        let (n, hw) = (x.dims()[0], x.dims()[2] * x.dims()[3]);
        Ok(if x.is_lanes() {
            // `[⌈N/16⌉][C][H·W·16]`.
            (n.div_ceil(LANES), hw * LANES)
        } else {
            // NCHW is (outer=n, c, inner=h*w) in row-major order already.
            (n, hw)
        })
    }
}

impl Layer for BatchNorm2d {
    fn layer_kind(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        let (outer, inner) = self.view(x)?;
        let g = self
            .inner
            .make_group(ps, x, outer, inner, ctx, "BatchNorm2d")?;
        execute_single(x, g)
    }

    fn record(&mut self, rec: &mut Recorder<'_>) -> Result<bool> {
        // Statistics are whole-tensor reductions: materialize the chain
        // first, then record the normalize+affine sweep as a fusable group.
        rec.flush_pending()?;
        let (ps, ctx) = (rec.ps(), rec.ctx());
        let (outer, inner) = self.view(rec.cur())?;
        let g = self
            .inner
            .make_group(ps, rec.cur(), outer, inner, ctx, "BatchNorm2d")?;
        rec.push_group(g);
        Ok(true)
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        self.inner.backward(ps, cache, dy, gs, "BatchNorm2d")
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        vec![&self.inner.running_mean, &self.inner.running_var]
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.inner.running_mean, &mut self.inner.running_var]
    }
}

/// Batch normalisation over the feature axis of `[N, C]` inputs
/// (projection / prediction heads).
#[derive(Debug)]
pub struct BatchNorm1d {
    inner: BatchNormInner,
}

impl BatchNorm1d {
    /// Creates a 1-D batch norm with the given feature count.
    pub fn new(ps: &mut ParamSet, name: &str, features: usize) -> Self {
        BatchNorm1d {
            inner: BatchNormInner::new(ps, name, features, 0.1, 1e-5),
        }
    }

    /// Validates an `[N, C]` input and returns the `(outer, inner)` view
    /// of the feature axis.
    fn view(&self, x: &Tensor) -> Result<(usize, usize)> {
        if x.rank() != 2 || x.dims()[1] != self.inner.channels {
            return Err(NnError::BadInput {
                layer: format!("BatchNorm1d({})", self.inner.channels),
                expected: format!("[N, {}]", self.inner.channels),
                got: x.dims().to_vec(),
            });
        }
        Ok((x.dims()[0], 1))
    }
}

impl Layer for BatchNorm1d {
    fn layer_kind(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        let (outer, inner) = self.view(x)?;
        let g = self
            .inner
            .make_group(ps, x, outer, inner, ctx, "BatchNorm1d")?;
        execute_single(x, g)
    }

    fn record(&mut self, rec: &mut Recorder<'_>) -> Result<bool> {
        rec.flush_pending()?;
        let (ps, ctx) = (rec.ps(), rec.ctx());
        let (outer, inner) = self.view(rec.cur())?;
        let g = self
            .inner
            .make_group(ps, rec.cur(), outer, inner, ctx, "BatchNorm1d")?;
        rec.push_group(g);
        Ok(true)
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        self.inner.backward(ps, cache, dy, gs, "BatchNorm1d")
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        vec![&self.inner.running_mean, &self.inner.running_var]
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.inner.running_mean, &mut self.inner.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self as oracle, bits, finite, hostile, Op, CHANNELS, INNER, THREADS};
    use cq_tensor::par::with_thread_limit;
    use rand::SeedableRng;

    /// A `BatchNorm2d` over `c` channels with gamma, beta and the running
    /// statistics moved off their initial values.
    fn perturbed(c: usize, seed: u64) -> (ParamSet, BatchNorm2d) {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", c);
        let ids: Vec<_> = ps.iter().map(|(id, _, _)| id).collect();
        for (k, id) in ids.into_iter().enumerate() {
            let v = finite(c, seed + k as u64);
            ps.get_mut(id).as_mut_slice().copy_from_slice(&v);
        }
        let mean = finite(c, seed + 7);
        bn.inner.running_mean.as_mut_slice().copy_from_slice(&mean);
        for (r, v) in bn
            .inner
            .running_var
            .as_mut_slice()
            .iter_mut()
            .zip(finite(c, seed + 8))
        {
            *r = v.abs() + 0.5;
        }
        (ps, bn)
    }

    /// One BatchNorm forward (statistics and the fused normalize+affine
    /// pass) and backward at `level` against the scalar oracle.
    fn check_against_oracle(level: SimdLevel, outer: usize, c: usize, side: usize, train: bool) {
        let inner = side * side;
        let len = outer * c * inner;
        let seed = (c * 1000 + inner * 10 + usize::from(train)) as u64;
        let dims = [outer, c, side, side];
        let at = format!("{level:?} c={c} inner={inner} train={train}");
        for x in [finite(len, seed), hostile(len, seed)] {
            let (ps, mut bn) = perturbed(c, seed);
            let (run_mean, run_var) = (
                bn.inner.running_mean.as_slice().to_vec(),
                bn.inner.running_var.as_slice().to_vec(),
            );
            let ctx = if train {
                ForwardCtx::train()
            } else {
                ForwardCtx::eval()
            };
            let xt = Tensor::from_vec(x.clone(), &dims).unwrap();
            let g = bn
                .inner
                .make_group(&ps, &xt, outer, inner, &ctx, "t")
                .unwrap();
            let (y, caches) = crate::graph::execute_at(level, xt, vec![g]).unwrap();
            let cache = caches.into_iter().next().flatten().unwrap();

            let (mean, var) = if train {
                oracle::batch_stats(&x, outer, c, inner)
            } else {
                (run_mean, run_var)
            };
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + 1e-5).sqrt()).collect();
            let (gamma, beta) = (ps.get(bn.inner.gamma), ps.get(bn.inner.beta));
            let mut want = x.clone();
            let mut xhat = vec![0.0; len];
            let norm = Op::Normalize {
                mean: &mean,
                inv_std: &inv_std,
                c,
                inner,
            };
            oracle::apply_op(&norm, &mut want, Some(&mut xhat));
            let affine = Op::Affine {
                scale: gamma.as_slice(),
                shift: beta.as_slice(),
                c,
                inner,
            };
            oracle::apply_op(&affine, &mut want, None);
            assert_eq!(bits(y.as_slice()), bits(&want), "y {at}");
            let bc = cache.downcast::<BnCache>("t").unwrap();
            assert_eq!(bits(bc.xhat.as_slice()), bits(&xhat), "xhat {at}");
            assert_eq!(bits(&bc.inv_std), bits(&inv_std), "inv_std {at}");

            let dy = hostile(len, seed + 9);
            let mut gs = ps.zero_grads();
            let dyt = Tensor::from_vec(dy.clone(), &dims).unwrap();
            let dx = bn.inner.backward_at(level, &ps, &cache, &dyt, &mut gs, "t");
            let dx = dx.unwrap();
            let (want_dx, dgamma, dbeta) = oracle::batch_norm_backward(
                &dy,
                &xhat,
                gamma.as_slice(),
                &inv_std,
                outer,
                inner,
                train,
            );
            assert_eq!(bits(dx.as_slice()), bits(&want_dx), "dx {at}");
            // The gradient set adds each gradient to a zeroed slot.
            let added = |v: Vec<f32>| v.into_iter().map(|g| 0.0 + g).collect::<Vec<_>>();
            let got_dgamma = gs.get(bn.inner.gamma).as_slice();
            assert_eq!(bits(got_dgamma), bits(&added(dgamma)), "dgamma {at}");
            let got_dbeta = gs.get(bn.inner.beta).as_slice();
            assert_eq!(bits(got_dbeta), bits(&added(dbeta)), "dbeta {at}");
        }
    }

    #[test]
    fn forward_and_backward_match_the_scalar_oracle() {
        for level in SimdLevel::supported() {
            for threads in THREADS {
                for c in CHANNELS {
                    for side in [1, 2, 4, 8, 16] {
                        for train in [true, false] {
                            with_thread_limit(threads, || {
                                check_against_oracle(level, 3, c, side, train)
                            });
                        }
                    }
                }
            }
        }
    }

    /// The `xhat` tap and `dX` land in recycled buffers that the pass and
    /// the sweep must overwrite in full. Each shape runs right after
    /// another of the same length (16,384 floats, enough to be recycled)
    /// left its values there.
    // Recycled buffers are 64 KiB and up: too large for Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn outputs_in_recycled_buffers_match_the_scalar_oracle() {
        let level = SimdLevel::detect();
        for train in [true, false] {
            for (outer, c, side) in [(16, 16, 8), (4, 64, 8), (16, 64, 4), (16, 16, 8)] {
                check_against_oracle(level, outer, c, side, train);
            }
        }
    }

    /// The lane storage of the row-major `v` of `dims` with every pad
    /// lane NaN, as a debug build's conversions write them.
    fn nan_padded(v: &[f32], dims: &[usize]) -> Tensor {
        let mut t = Tensor::from_vec(v.to_vec(), dims)
            .and_then(|t| t.to_lanes())
            .unwrap();
        if let Some(pad) = cq_tensor::lanes::PadLanes::of(&t) {
            let mut real = vec![false; t.len()];
            pad.real_runs(0, t.len(), |lo, hi| real[lo..hi].fill(true));
            for (v, r) in t.as_mut_slice().iter_mut().zip(real) {
                if !r {
                    *v = f32::NAN;
                }
            }
        }
        t
    }

    /// `dgamma`/`dbeta` on lanes: whole groups of 16 channels and the
    /// strided rest, partial and several lane blocks, with NaN pad lanes
    /// under finite and hostile values.
    // Up to 33 × 48 × 256 elements per shape: too large for Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn lane_gradient_sums_match_the_scalar_oracle() {
        for c in [16, 17, 31, 32, 48] {
            for n in [1, 15, 16, 17, 33] {
                for side in [1, 2, 4, 8, 16] {
                    let (hw, len) = (side * side, n * c * side * side);
                    let dims = [n, c, side, side];
                    let seed = (c * 10_000 + n * 100 + side) as u64;
                    let ones = vec![1.0f32; c];
                    for values in [finite, hostile] {
                        let (dy, xhat) = (values(len, seed), values(len, seed + 1));
                        let (_, want_dg, want_db) =
                            oracle::batch_norm_backward(&dy, &xhat, &ones, &ones, n, hw, true);
                        let (dyl, xhl) = (nan_padded(&dy, &dims), nan_padded(&xhat, &dims));
                        for level in SimdLevel::supported() {
                            for threads in THREADS {
                                let (dg, db) = with_thread_limit(threads, || {
                                    lane_grad_sums(level, dyl.as_slice(), xhl.as_slice(), n, c, hw)
                                });
                                let at = format!("{level:?} {threads} threads, {dims:?}");
                                assert_eq!(bits(&dg), bits(&want_dg), "dgamma {at}");
                                assert_eq!(bits(&db), bits(&want_db), "dbeta {at}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn statistics_match_the_scalar_oracle() {
        for c in CHANNELS {
            for inner in INNER {
                for outer in [1, 2, 3, 9] {
                    let len = outer * c * inner;
                    for x in [finite(len, len as u64), hostile(len, len as u64)] {
                        let (mean, var) = batch_stats(&x, outer, c, inner);
                        let (want_mean, want_var) = oracle::batch_stats(&x, outer, c, inner);
                        let at = format!("outer={outer} c={c} inner={inner}");
                        assert_eq!(bits(&mean), bits(&want_mean), "mean {at}");
                        assert_eq!(bits(&var), bits(&want_var), "var {at}");
                    }
                }
            }
        }
        // A slice of negative zeros sums to −0.0 from the `Sum` identity,
        // and adds to a `+0.0` total as `+0.0`.
        let (mean, _) = batch_stats(&[-0.0; 8], 2, 1, 4);
        assert_eq!(mean[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn backward_rejects_a_dy_of_the_wrong_shape() {
        let mut ps = ParamSet::new();
        let mut bn2 = BatchNorm2d::new(&mut ps, "a", 2);
        let mut bn1 = BatchNorm1d::new(&mut ps, "b", 3);
        let x2 = Tensor::from_vec(finite(16, 1), &[2, 2, 2, 2]).unwrap();
        let x1 = Tensor::from_vec(finite(12, 2), &[4, 3]).unwrap();
        let (_, c2) = bn2.forward(&ps, &x2, &ForwardCtx::train()).unwrap();
        let (_, c1) = bn1.forward(&ps, &x1, &ForwardCtx::train()).unwrap();
        let mut gs = ps.zero_grads();
        for dims in [[2, 2, 2, 3], [2, 2, 2, 1], [1, 2, 2, 2]] {
            let dy = Tensor::ones(&dims);
            let err = bn2.backward(&ps, &c2, &dy, &mut gs).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err}");
        }
        for dims in [[5, 3], [3, 3], [4, 4]] {
            let dy = Tensor::ones(&dims);
            let err = bn1.backward(&ps, &c1, &dy, &mut gs).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err}");
        }
    }

    #[test]
    fn train_output_is_normalized() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[8, 2, 4, 4], 3.0, 2.0, &mut rng);
        let (y, _) = bn.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        // per-channel mean ~ 0, var ~ 1
        for ci in 0..2 {
            let mut vals = Vec::new();
            for n in 0..8 {
                let base = (n * 2 + ci) * 16;
                vals.extend_from_slice(&y.as_slice()[base..base + 16]);
            }
            let t = Tensor::from_slice(&vals);
            assert!(t.mean().abs() < 1e-4, "mean {}", t.mean());
            assert!((t.variance() - 1.0).abs() < 1e-2, "var {}", t.variance());
        }
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = Tensor::randn(&[16, 1, 2, 2], 5.0, 3.0, &mut rng);
            bn.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        }
        let rm = bn.inner.running_mean.as_slice()[0];
        let rv = bn.inner.running_var.as_slice()[0];
        assert!((rm - 5.0).abs() < 0.3, "running mean {rm}");
        assert!((rv - 9.0).abs() < 1.5, "running var {rv}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 1);
        // fresh BN: running mean 0, var 1 => eval is near-identity
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let (y, _) = bn.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn train_rejects_single_element_batch() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm1d::new(&mut ps, "bn", 3);
        let x = Tensor::ones(&[1, 3]);
        assert!(bn.forward(&ps, &x, &ForwardCtx::train()).is_err());
        assert!(bn.forward(&ps, &x, &ForwardCtx::eval()).is_ok());
    }

    #[test]
    fn gradcheck_train_2d() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm2d::new(&mut ps, "bn", 2);
        crate::gradcheck::check_layer(bn, ps, &[4, 2, 3, 3], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn gradcheck_eval_2d() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm2d::new(&mut ps, "bn", 2);
        crate::gradcheck::check_layer(bn, ps, &[2, 2, 3, 3], &ForwardCtx::eval(), 2e-2);
    }

    #[test]
    fn gradcheck_train_1d() {
        let mut ps = ParamSet::new();
        let bn = BatchNorm1d::new(&mut ps, "bn", 5);
        crate::gradcheck::check_layer(bn, ps, &[6, 5], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn state_tensors_exposed_for_checkpointing() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 3);
        assert_eq!(bn.state_tensors().len(), 2);
        bn.state_tensors_mut()[0].fill(7.0);
        assert_eq!(bn.state_tensors()[0].as_slice(), &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn bn_rejects_wrong_shapes() {
        let mut ps = ParamSet::new();
        let mut bn2 = BatchNorm2d::new(&mut ps, "a", 2);
        assert!(bn2
            .forward(&ps, &Tensor::ones(&[2, 3, 2, 2]), &ForwardCtx::eval())
            .is_err());
        let mut bn1 = BatchNorm1d::new(&mut ps, "b", 2);
        assert!(bn1
            .forward(&ps, &Tensor::ones(&[2, 3]), &ForwardCtx::eval())
            .is_err());
    }
}
