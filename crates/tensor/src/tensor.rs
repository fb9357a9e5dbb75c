//! The [`Tensor`] type: contiguous `f32` storage plus a [`Shape`] and the
//! [`Layout`] of the storage.

use std::sync::Arc;

use crate::lanes::{self, LANES};
use crate::recycle::{self, take_copy, take_written, take_zeroed};
use crate::{Result, Shape, TensorError};

// Storage copies made because a tensor was written while its storage was
// shared. A function of the program alone, so totals are identical at
// any thread count.
static COW_COPIES: cq_obs::Counter = cq_obs::Counter::new("tensor.cow_copies");

/// How a tensor's elements are laid out in its storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Row-major over the dims (for a rank-4 tensor, NCHW).
    #[default]
    Nchw,
    /// The image-minor lane layout of a rank-4 `[N, C, H, W]` tensor,
    /// `[⌈N/16⌉][C][H][W][16]`: one 16-float lane holds one element of 16
    /// images, and the storage starts on a 64-byte boundary. The lanes of
    /// a partial last block past image `N` are padding: no result reads
    /// them (see [`crate::lanes`]).
    Lanes,
}

/// A tensor's element buffer. Shared between clones of a tensor; when the
/// last owner drops it, a large buffer goes back to the recycler.
///
/// The elements are `raw[off..off + len]`: all of `raw` for row-major
/// storage, and `len` floats from the first 64-byte boundary of a `raw`
/// of `len + 16` floats for lane storage.
#[derive(Default)]
struct Buf {
    raw: Vec<f32>,
    off: usize,
    len: usize,
}

impl Buf {
    /// All of `raw`.
    fn plain(raw: Vec<f32>) -> Buf {
        let len = raw.len();
        Buf { raw, off: 0, len }
    }

    /// `len` floats on a 64-byte boundary inside `raw`, which holds
    /// `len + 16`.
    fn aligned(raw: Vec<f32>, len: usize) -> Buf {
        debug_assert_eq!(raw.len(), len + LANES);
        // Floats up to the first 64-byte boundary.
        let off = (raw.as_ptr() as usize).wrapping_neg() % 64 / 4;
        Buf { raw, off, len }
    }

    /// `len` lane-aligned floats of unspecified value.
    fn aligned_written(len: usize) -> Buf {
        Buf::aligned(take_written(len + LANES), len)
    }

    fn get(&self) -> &[f32] {
        &self.raw[self.off..self.off + self.len]
    }

    fn get_mut(&mut self) -> &mut [f32] {
        &mut self.raw[self.off..self.off + self.len]
    }

    fn is_aligned(&self) -> bool {
        self.raw.len() != self.len
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.get() == other.get()
    }
}

impl Clone for Buf {
    /// The copy that copy-on-write makes.
    fn clone(&self) -> Self {
        COW_COPIES.add(1);
        if self.is_aligned() {
            let mut b = Buf::aligned_written(self.len);
            b.get_mut().copy_from_slice(self.get());
            b
        } else {
            Buf::plain(take_copy(self.get()))
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.raw));
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A dense, contiguous tensor of `f32` values, row-major unless it is in
/// the [`Layout::Lanes`] layout.
///
/// `Tensor` is the workhorse type of the whole reproduction: model weights,
/// activations, gradients, images and feature embeddings are all `Tensor`s.
///
/// The storage is reference-counted: `clone` and [`Tensor::reshape`] share
/// it, and a write ([`Tensor::as_mut_slice`] and the other `&mut self`
/// methods) copies it first only if it is shared, counting that copy in
/// `tensor.cow_copies`. Large buffers are recycled when their last owner
/// drops them (see [`crate::recycle`]).
///
/// [`Tensor::dims`] are always the logical dims (`[N, C, H, W]` for a
/// lane tensor). Elementwise maps and same-layout zips work in storage
/// order in either layout; whatever indexes elements by their NCHW
/// position ([`Tensor::at`], reductions, broadcasting, reshapes) takes a
/// row-major tensor only, and a lane tensor is converted with
/// [`Tensor::to_nchw`] first.
///
/// # Example
///
/// ```
/// use cq_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3], 2.0);
/// let y = x.scale(0.5).add(&Tensor::ones(&[2, 3]))?;
/// assert_eq!(y.as_slice(), &[2.0; 6]);
/// # Ok::<(), cq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Arc<Buf>,
    shape: Shape,
    layout: Layout,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Tensor::new(take_zeroed(shape.len()), shape)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let mut data = take_written(shape.len());
        data.fill(value);
        Tensor::new(data, shape)
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::new(vec![value], Shape::scalar())
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.as_mut_slice();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps a buffer whose length matches `shape`, row-major.
    fn new(data: Vec<f32>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.len());
        Tensor {
            data: Arc::new(Buf::plain(data)),
            shape,
            layout: Layout::Nchw,
        }
    }

    /// A tensor of `dims` in `layout` whose elements the caller writes in
    /// full before reading them: a recycled buffer that is not filled
    /// first (in builds with debug assertions every element is NaN, so
    /// an element left unwritten, such as the pad lanes of a lane tensor,
    /// shows wherever it is read).
    ///
    /// # Panics
    ///
    /// Panics if `layout` is [`Layout::Lanes`] and `dims` is not rank 4.
    pub fn written(dims: &[usize], layout: Layout) -> Self {
        let shape = Shape::new(dims);
        let data = match layout {
            Layout::Nchw => Buf::plain(take_written(shape.len())),
            Layout::Lanes => Buf::aligned_written(lanes::storage_len(dims)),
        };
        Tensor {
            data: Arc::new(data),
            shape,
            layout,
        }
    }

    /// An uninitialised tensor of this one's dims and layout (see
    /// [`Tensor::written`]).
    pub fn written_like(&self) -> Self {
        Tensor::written(self.dims(), self.layout)
    }

    /// Creates a tensor that takes ownership of `data`, viewed as `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the element count implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: shape.dims().to_vec(),
            });
        }
        Ok(Tensor::new(data, shape))
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::new(take_copy(data), Shape::new(&[data.len()]))
    }

    /// Creates a rank-1 tensor of `n` evenly spaced values in `[start, end)`.
    pub fn arange(start: f32, end: f32, step: f32) -> Self {
        assert!(step != 0.0, "step must be nonzero");
        let mut data = Vec::new();
        let mut v = start;
        while (step > 0.0 && v < end) || (step < 0.0 && v > end) {
            data.push(v);
            v += step;
        }
        let n = data.len();
        Tensor::new(data, Shape::new(&[n]))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The axis lengths.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The storage layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Whether the storage is in the lane layout.
    pub fn is_lanes(&self) -> bool {
        self.layout == Layout::Lanes
    }

    /// Number of stored elements: the element count of the dims for a
    /// row-major tensor, and that rounded up to whole 16-image blocks
    /// (pad lanes included) for a lane tensor.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    /// Immutable view of the storage, in the tensor's [`Layout`].
    pub fn as_slice(&self) -> &[f32] {
        self.data.get()
    }

    /// Mutable view of the storage: in place when this tensor owns its
    /// storage alone, after a copy (counted in `tensor.cow_copies`) when
    /// the storage is shared.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).get_mut()
    }

    /// Consumes the tensor and returns its elements row-major (a lane
    /// tensor is converted first). The buffer is copied (and the copy
    /// counted in `tensor.cow_copies`) only when the storage is shared.
    pub fn into_vec(self) -> Vec<f32> {
        if self.is_lanes() {
            return self.to_nchw().into_vec();
        }
        let mut buf = Arc::unwrap_or_clone(self.data);
        std::mem::take(&mut buf.raw)
    }

    /// A tensor with its own copy of this one's storage, for a caller
    /// that writes the copy next: a `clone` would share the storage and
    /// copy it on that write anyway, counting a `tensor.cow_copies`.
    pub fn deep_copy(&self) -> Self {
        let mut t = self.written_like();
        t.as_mut_slice().copy_from_slice(self.as_slice());
        t
    }

    /// This rank-4 tensor in the lane layout: shares the storage of a
    /// lane tensor, and converts a row-major one (counted in
    /// `tensor.conv.lane_elems`, see [`crate::lanes`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a tensor of another rank.
    pub fn to_lanes(&self) -> Result<Self> {
        if self.is_lanes() {
            return Ok(self.clone());
        }
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: self.rank(),
                op: "to_lanes",
            });
        }
        let mut t = Tensor::written(self.dims(), Layout::Lanes);
        lanes::to_lanes(self.as_slice(), self.dims(), t.as_mut_slice());
        Ok(t)
    }

    /// This tensor row-major: shares the storage of a row-major tensor,
    /// and converts a lane tensor, pad lanes left out (counted in
    /// `tensor.conv.lane_elems`).
    pub fn to_nchw(&self) -> Self {
        if !self.is_lanes() {
            return self.clone();
        }
        let mut t = Tensor::written(self.dims(), Layout::Nchw);
        lanes::to_nchw(self.as_slice(), self.dims(), t.as_mut_slice());
        t
    }

    /// Panics unless the tensor is row-major: `op` indexes elements by
    /// their row-major position.
    pub(crate) fn expect_nchw(&self, op: &str) {
        assert!(
            !self.is_lanes(),
            "Tensor::{op} reads row-major positions; convert a lane tensor with to_nchw first"
        );
    }

    /// Whether `self` and `other` share one buffer.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Debug-asserts index validity; see [`Shape::flatten_index`].
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.expect_nchw("at");
        self.as_slice()[self.shape.flatten_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        self.expect_nchw("set");
        let off = self.shape.flatten_index(idx);
        self.as_mut_slice()[off] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a single-element tensor");
        self.as_slice()[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor sharing this one's storage, viewed as `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let mut t = self.clone();
        t.reshape_in_place(shape)?;
        Ok(t)
    }

    /// In-place variant of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ,
    /// and [`TensorError::LayoutMismatch`] for a lane tensor.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        if self.is_lanes() {
            return Err(TensorError::LayoutMismatch { op: "reshape" });
        }
        let new_shape = Shape::new(shape);
        if new_shape.len() != self.len() {
            return Err(TensorError::LengthMismatch {
                len: self.len(),
                shape: shape.to_vec(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// Flattens to rank 1, sharing this tensor's storage (a lane tensor
    /// is converted first).
    pub fn flatten(&self) -> Self {
        let t = self.to_nchw();
        Tensor {
            data: Arc::clone(&t.data),
            shape: Shape::new(&[t.len()]),
            layout: Layout::Nchw,
        }
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every stored element, returning a new tensor of the
    /// same layout.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = self.written_like();
        for (o, &v) in out.as_mut_slice().iter_mut().zip(self.as_slice()) {
            *o = f(v);
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shaped tensors of one layout,
    /// in that layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ and
    /// [`TensorError::LayoutMismatch`] if layouts do.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        self.check_same(other, "zip")?;
        let mut out = self.written_like();
        for (o, (&a, &b)) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.as_slice().iter().zip(other.as_slice()))
        {
            *o = f(a, b);
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("zip", out.as_slice());
        Ok(out)
    }

    /// Checks that `other` has this tensor's shape and layout.
    fn check_same(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op,
            });
        }
        if self.layout != other.layout {
            return Err(TensorError::LayoutMismatch { op });
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Elementwise addition (exact shapes). See [`Tensor::add_broadcast`]
    /// for broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Self> {
        self.zip(other, |a, b| a / b)
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same(other, "add_assign")?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same(other, "axpy")?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.as_mut_slice().fill(value);
    }

    // ------------------------------------------------------------------
    // Broadcasting binary ops
    // ------------------------------------------------------------------

    /// Elementwise binary operation with NumPy-style broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape == other.shape {
            return self.zip(other, f);
        }
        if self.is_lanes() || other.is_lanes() {
            return Err(TensorError::LayoutMismatch {
                op: "broadcast_with",
            });
        }
        let out_shape = self.shape.broadcast(&other.shape)?;
        let out_dims = out_shape.dims().to_vec();
        let rank = out_dims.len();
        let a_dims = pad_leading(self.dims(), rank);
        let b_dims = pad_leading(other.dims(), rank);
        let a_strides = broadcast_strides(&a_dims, &Shape::new(&a_dims).strides(), &out_dims);
        let b_strides = broadcast_strides(&b_dims, &Shape::new(&b_dims).strides(), &out_dims);

        let (sa, sb) = (self.as_slice(), other.as_slice());
        let mut data = take_written(out_shape.len());
        let mut idx = vec![0usize; rank];
        for slot in data.iter_mut() {
            let mut ao = 0;
            let mut bo = 0;
            for d in 0..rank {
                ao += idx[d] * a_strides[d];
                bo += idx[d] * b_strides[d];
            }
            *slot = f(sa[ao], sb[bo]);
            // increment odometer
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < out_dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::guard_slice("broadcast_with", &data);
        Ok(Tensor::new(data, out_shape))
    }

    /// Broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn add_broadcast(&self, other: &Tensor) -> Result<Self> {
        self.broadcast_with(other, |a, b| a + b)
    }

    /// Broadcasting multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn mul_broadcast(&self, other: &Tensor) -> Result<Self> {
        self.broadcast_with(other, |a, b| a * b)
    }

    // ------------------------------------------------------------------
    // Numeric hygiene
    // ------------------------------------------------------------------

    /// Whether every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.expect_nchw("is_finite");
        self.as_slice().iter().all(|v| v.is_finite())
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.expect_nchw("sq_norm");
        self.as_slice().iter().map(|&v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product treating both tensors as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.is_lanes() || other.is_lanes() {
            return Err(TensorError::LayoutMismatch { op: "dot" });
        }
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "dot",
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }
}

/// Left-pads `dims` with 1s to `rank` axes.
fn pad_leading(dims: &[usize], rank: usize) -> Vec<usize> {
    let mut out = vec![1; rank];
    out[rank - dims.len()..].copy_from_slice(dims);
    out
}

/// Zeroes the stride of broadcast (length-1) axes.
fn broadcast_strides(dims: &[usize], strides: &[usize], out_dims: &[usize]) -> Vec<usize> {
    dims.iter()
        .zip(strides)
        .zip(out_dims)
        .map(|((&d, &s), &od)| if d == od { s } else { 0 })
        .collect()
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.as_slice())
        } else {
            write!(
                f,
                "[{:?}, ... {} elements]",
                &self.as_slice()[..8],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_contents() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn arange_spacing() {
        let t = Tensor::arange(0.0, 1.0, 0.25);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.as_slice()[5], 5.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        let mut c = Tensor::zeros(&[2]);
        assert!(c.add_assign(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add_broadcast(&b).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_mul_column_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        let c = a.mul_broadcast(&b).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 4.0, 9.0, 12.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let s = Tensor::scalar(10.0);
        assert_eq!(a.mul_broadcast(&s).unwrap().as_slice(), &[10.0, 20.0]);
    }

    #[test]
    fn reshape_checks_length() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.reshape(&[3, 2]).is_ok());
        assert!(a.reshape(&[4]).is_err());
        let mut b = a.clone();
        b.reshape_in_place(&[6]).unwrap();
        assert_eq!(b.rank(), 1);
    }

    #[test]
    fn clones_and_reshapes_share_storage_until_written() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let mut b = a.clone();
        let r = a.reshape(&[3, 2]).unwrap();
        let f = a.flatten();
        assert!(b.shares_storage(&a) && r.shares_storage(&a) && f.shares_storage(&a));
        // A write to a shared tensor copies it first; the others keep
        // their values.
        b.as_mut_slice()[0] = 9.0;
        assert!(!b.shares_storage(&a));
        assert_eq!(a.as_slice()[0], 0.0);
        assert_eq!(r.as_slice()[0], 0.0);
        assert_eq!(b.as_slice(), &[9.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // A sole owner writes in place.
        let before = b.as_slice().as_ptr();
        b.fill(1.0);
        b.set(&[1, 2], 2.0);
        b.map_in_place(|v| v * 2.0);
        assert_eq!(b.as_slice().as_ptr(), before);
        assert_eq!(b.as_slice(), &[2.0, 2.0, 2.0, 2.0, 2.0, 4.0]);
        // `into_vec` hands over a sole owner's buffer and copies a shared one.
        let ptr = f.as_slice().as_ptr();
        drop((a, r));
        let v = f.into_vec();
        assert_eq!(v.as_ptr(), ptr);
        let c = Tensor::ones(&[4]);
        let d = c.clone();
        let v = d.into_vec();
        assert_ne!(v.as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn norms_and_dot() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let b = Tensor::from_slice(&[1.0, 1.0]);
        assert_eq!(a.dot(&b).unwrap(), 7.0);
    }

    #[test]
    fn finite_detection() {
        let mut a = Tensor::ones(&[2]);
        assert!(a.is_finite());
        a.as_mut_slice()[0] = f32::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn clamp_bounds_values() {
        let a = Tensor::from_slice(&[-2.0, 0.5, 9.0]);
        assert_eq!(a.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn display_never_empty() {
        let t = Tensor::zeros(&[2]);
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big}").contains("100 elements"));
    }
}
