//! Recycling of large buffers across training steps.
//!
//! A training step allocates the same large buffers every step: layer
//! outputs, input gradients, BatchNorm taps, activation masks and the lane
//! scratch of the conv kernels. Freed, they go back to the C allocator,
//! which returns big ones to the kernel and maps fresh pages for them on
//! the next step. The recycler keeps them instead. A buffer of at least
//! [`MIN_BYTES`] goes back here when its owner drops it
//! ([`Tensor`](crate::Tensor) storage, the lane scratch) or hands it to
//! [`give`], and a later request is served from it. Smaller buffers are
//! allocated and freed normally.
//!
//! # Entry points
//!
//! - [`take_zeroed`] returns `len` zeros, for buffers whose zeros are
//!   read (accumulators, padding lanes).
//! - [`take_written`] returns `len` elements of unspecified value, for
//!   buffers that the caller writes in full before reading. In builds
//!   with debug assertions every element is a poison value (NaN for
//!   `f32`, all bits set for `u32`), so a kernel that leaves part of its
//!   output unwritten shows it in its tests.
//!
//! A request takes the free buffer of least capacity that holds it, and
//! allocates a buffer of exactly its length when none does (a miss).
//! Which buffer a request gets never changes a value: callers either
//! zero it or overwrite it.
//!
//! # Retention bound
//!
//! Each capacity keeps a count of the buffers allocated with it on a
//! miss, and the recycler holds at most that many free buffers of the
//! capacity; a buffer returned beyond it is freed. A miss happens only
//! when every retained buffer large enough is in use, so the recycler
//! never holds more buffers of a capacity than the program once had in
//! use at the same time. A training step, which requests the same lengths
//! in the same order every step, therefore allocates nothing large after
//! its first step and retains no more than that step's own buffers.
//!
//! Free buffers are kept in a `BTreeMap` by capacity, so nothing here
//! iterates a hash order.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Buffers smaller than this (64 KiB) bypass the recycler.
pub const MIN_BYTES: usize = 64 * 1024;

/// An element type the recycler keeps buffers of: `f32` and `u32`.
pub trait Elem: Copy + Send + 'static + private::Sealed {
    /// The value [`take_written`] fills buffers with when debug
    /// assertions are on.
    const POISON: Self;
    /// The value [`take_zeroed`] fills buffers with.
    const ZERO: Self;
    /// The process-wide pool of this element type.
    #[doc(hidden)]
    fn pool() -> &'static Pool<Self>;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u32 {}
}

static F32: Pool<f32> = Pool::new();
static U32: Pool<u32> = Pool::new();

impl Elem for f32 {
    const POISON: f32 = f32::NAN;
    const ZERO: f32 = 0.0;
    fn pool() -> &'static Pool<f32> {
        &F32
    }
}

impl Elem for u32 {
    const POISON: u32 = u32::MAX;
    const ZERO: u32 = 0;
    fn pool() -> &'static Pool<u32> {
        &U32
    }
}

/// Request and retention totals of the recyclers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Large requests served from a retained buffer.
    pub hits: u64,
    /// Large requests that allocated a fresh buffer.
    pub misses: u64,
    /// Bytes of free buffers held right now.
    pub retained_bytes: u64,
}

/// The free buffers of one capacity.
struct Slot<T> {
    free: Vec<Vec<T>>,
    /// Buffers of this capacity allocated on a miss: the retention cap.
    made: usize,
}

struct Slots<T> {
    by_capacity: BTreeMap<usize, Slot<T>>,
    stats: Stats,
}

/// The free buffers of one element type, by capacity.
#[doc(hidden)]
pub struct Pool<T>(Mutex<Slots<T>>);

impl<T: Elem> Pool<T> {
    const fn new() -> Self {
        Pool(Mutex::new(Slots {
            by_capacity: BTreeMap::new(),
            stats: Stats {
                hits: 0,
                misses: 0,
                retained_bytes: 0,
            },
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        // The map stays consistent across a panic: every update is one
        // push or pop plus counter arithmetic.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `len` elements from a retained buffer, unspecified in value, or
    /// `None` for a small request or a miss, which raises the cap of
    /// capacity `len`.
    fn reuse(&self, len: usize) -> Option<Vec<T>> {
        if !is_large::<T>(len) {
            return None;
        }
        let mut guard = self.lock();
        let Slots { by_capacity, stats } = &mut *guard;
        let Some(mut v) = by_capacity.range_mut(len..).find_map(|(_, s)| s.free.pop()) else {
            stats.misses += 1;
            let slot = by_capacity.entry(len).or_insert(Slot {
                free: Vec::new(),
                made: 0,
            });
            slot.made += 1;
            return None;
        };
        stats.hits += 1;
        stats.retained_bytes -= bytes(&v);
        drop(guard);
        // Only elements past the last owner's length are written here.
        if v.len() >= len {
            v.truncate(len);
        } else {
            v.resize(len, T::ZERO);
        }
        Some(v)
    }

    fn take_zeroed(&self, len: usize) -> Vec<T> {
        match self.reuse(len) {
            Some(mut v) => {
                v.fill(T::ZERO);
                v
            }
            None => vec![T::ZERO; len],
        }
    }

    fn take_written(&self, len: usize) -> Vec<T> {
        let mut v = self.reuse(len).unwrap_or_else(|| vec![T::ZERO; len]);
        if cfg!(debug_assertions) {
            v.fill(T::POISON);
        }
        v
    }

    fn give(&self, v: Vec<T>) {
        if !is_large::<T>(v.capacity()) {
            return;
        }
        let mut guard = self.lock();
        let Slots { by_capacity, stats } = &mut *guard;
        if let Some(slot) = by_capacity.get_mut(&v.capacity()) {
            if slot.free.len() < slot.made {
                stats.retained_bytes += bytes(&v);
                slot.free.push(v);
                return;
            }
        }
        // Freed outside the lock.
        drop(guard);
        drop(v);
    }
}

/// Bytes of `v`'s allocation.
fn bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

fn is_large<T>(len: usize) -> bool {
    len * std::mem::size_of::<T>() >= MIN_BYTES
}

/// `len` zeros, in a retained buffer when a large enough one is free.
pub fn take_zeroed<T: Elem>(len: usize) -> Vec<T> {
    T::pool().take_zeroed(len)
}

/// `len` elements for the caller to overwrite in full, in a retained
/// buffer when a large enough one is free. The values are unspecified;
/// with debug assertions they are all [`Elem::POISON`].
pub fn take_written<T: Elem>(len: usize) -> Vec<T> {
    T::pool().take_written(len)
}

/// A copy of `data`, in a retained buffer when a large enough one is
/// free.
pub fn take_copy<T: Elem>(data: &[T]) -> Vec<T> {
    let mut v = take_written(data.len());
    v.copy_from_slice(data);
    v
}

/// Returns a buffer to the recycler: it is kept if it is large and its
/// capacity is under its cap, and freed otherwise.
pub fn give<T: Elem>(v: Vec<T>) {
    T::pool().give(v)
}

/// The recyclers' totals since the process started.
pub fn stats() -> Stats {
    let (f, u) = (F32.lock().stats, U32.lock().stats);
    Stats {
        hits: f.hits + u.hits,
        misses: f.misses + u.misses,
        retained_bytes: f.retained_bytes + u.retained_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{parallel_for_chunks, with_thread_limit, ChunkGrid};

    const LEN: usize = MIN_BYTES / 4;

    #[test]
    fn a_returned_buffer_is_reused_zeroed_or_poisoned() {
        let pool = Pool::<f32>::new();
        let mut v = pool.take_zeroed(LEN + 8);
        let ptr = v.as_ptr();
        v.fill(3.0);
        pool.give(v);
        let w = pool.take_zeroed(LEN + 8);
        assert_eq!(w.as_ptr(), ptr, "same length, same buffer");
        assert!(w.iter().all(|&x| x.to_bits() == 0));
        pool.give(w);
        let u = pool.take_written(LEN + 3);
        assert_eq!(
            (u.as_ptr(), u.len()),
            (ptr, LEN + 3),
            "a shorter request fits"
        );
        if cfg!(debug_assertions) {
            assert!(u.iter().all(|x| x.is_nan()));
        }
        pool.give(u);
        // A longer one does not.
        let big = pool.take_zeroed(LEN + 9);
        assert_ne!(big.as_ptr(), ptr);
        let s = pool.lock().stats;
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.retained_bytes, 4 * (LEN as u64 + 8));
    }

    #[test]
    fn small_and_foreign_buffers_are_not_kept() {
        let pool = Pool::<u32>::new();
        pool.give(vec![1; LEN - 1]);
        // No request of this capacity was ever a miss, so its cap is 0.
        pool.give(vec![1; LEN]);
        assert!(pool.lock().by_capacity.is_empty());
        let v = pool.take_written(LEN);
        if cfg!(debug_assertions) {
            assert!(v.iter().all(|&x| x == u32::MAX));
        }
        pool.give(v);
        // The cap is one buffer of this capacity.
        pool.give(vec![2; LEN]);
        let slots = pool.lock();
        assert_eq!(slots.by_capacity[&LEN].free.len(), 1);
    }

    /// Pool workers take and return buffers of one length at once: each
    /// buffer has one owner at a time, and the recycler never retains
    /// more of them than were out at once.
    #[test]
    fn workers_share_the_recycler() {
        static POOL: Pool<f32> = Pool::new();
        with_thread_limit(4, || {
            for round in 0..3 {
                parallel_for_chunks(ChunkGrid::new(16, 1), |_, c0, c1| {
                    for c in c0..c1 {
                        let tag = (round * 16 + c) as f32;
                        let mut v = POOL.take_written(LEN);
                        v.fill(tag);
                        assert!(v.iter().all(|&x| x == tag));
                        POOL.give(v);
                    }
                });
            }
        });
        let slots = POOL.lock();
        let slot = &slots.by_capacity[&LEN];
        assert!(slot.free.len() == slot.made && slot.made <= 4);
    }
}
