//! Deterministic data-parallel runtime: a persistent worker pool driving a
//! fixed chunk grid.
//!
//! The kernels in this crate parallelise over *row bands* (matmul) or
//! *batch elements* (conv, augmentation). Both patterns reduce to "split
//! `0..len` into contiguous chunks and run a closure per chunk", which is
//! what [`parallel_for_chunks`] and friends provide. Two invariants distinguish
//! this runtime from a naive scoped-thread fan-out:
//!
//! 1. **Spawn once.** Worker threads are spawned lazily on the first
//!    parallel dispatch and then parked on a condvar between jobs;
//!    `CQ_THREADS` is read and parsed exactly once, at pool
//!    initialisation. A matmul call costs a notify/park round-trip, not
//!    OS thread creation ([`pool_stats`] exposes the spawn count so tests
//!    can pin this down).
//! 2. **Thread-count-independent determinism.** Work is partitioned into
//!    a [`ChunkGrid`] derived *only* from the problem size; workers claim
//!    chunks dynamically, and reduced partials (see
//!    [`parallel_map_chunks`]) are combined in chunk-index order. The
//!    grid, the per-chunk arithmetic, and the combine order are all
//!    independent of how many threads execute the chunks, so results are
//!    bitwise identical at any `CQ_THREADS` — scheduling decides only
//!    *who* computes each chunk, never *what* is computed.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// Pool telemetry (no-ops unless a cq-obs sink is installed). `pool.jobs`
// and `pool.chunks` are workload counters — dispatch count and grid sizes
// are pure functions of the problem, so they are identical at every
// `CQ_THREADS` and cq-trace's diff gate fails on a drift. `pool.busy_ns`,
// `pool.park_ns` and `pool.workers_spawned` are timing/width telemetry
// that legitimately varies with the thread count: diff reports them but
// never gates.
static C_JOBS: cq_obs::Counter = cq_obs::Counter::new("pool.jobs");
static C_CHUNKS: cq_obs::Counter = cq_obs::Counter::new("pool.chunks");
static C_BUSY_NS: cq_obs::Counter = cq_obs::Counter::new("pool.busy_ns");
static C_PARK_NS: cq_obs::Counter = cq_obs::Counter::new("pool.park_ns");
static C_SPAWNED: cq_obs::Counter = cq_obs::Counter::new("pool.workers_spawned");

/// How a raw `CQ_THREADS` value was interpreted (pure, testable without
/// touching the process environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadsSpec {
    /// Variable not set: use the machine parallelism.
    Unset,
    /// A positive thread count.
    Count(usize),
    /// Explicit `0`: rejected (a zero-thread pool is meaningless); run
    /// single-threaded after warning.
    Zero,
    /// Unparseable value: ignored (machine parallelism) after warning.
    Garbage,
}

fn parse_cq_threads(raw: Option<&str>) -> ThreadsSpec {
    match raw {
        None => ThreadsSpec::Unset,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => ThreadsSpec::Zero,
            Ok(n) => ThreadsSpec::Count(n),
            Err(_) => ThreadsSpec::Garbage,
        },
    }
}

fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Once-flags for the two warnable `CQ_THREADS` outcomes. One flag per
/// path: a single shared flag would let whichever warning fires first
/// permanently suppress the other.
#[derive(Debug)]
struct WarnOnce {
    zero: AtomicBool,
    garbage: AtomicBool,
}

impl WarnOnce {
    const fn new() -> Self {
        WarnOnce {
            zero: AtomicBool::new(false),
            garbage: AtomicBool::new(false),
        }
    }
}

/// Maps a raw `CQ_THREADS` value to a thread count, routing each
/// rejection's diagnostic (at most once per flag set) through `warn`.
/// Pure apart from the injected once-flags and hook, so tests can cover
/// both warning orderings without touching the process environment.
fn resolve_threads(raw: Option<&str>, flags: &WarnOnce, warn: &mut dyn FnMut(String)) -> usize {
    match parse_cq_threads(raw) {
        ThreadsSpec::Count(n) => n,
        ThreadsSpec::Unset => machine_parallelism(),
        ThreadsSpec::Zero => {
            if !flags.zero.swap(true, Ordering::Relaxed) {
                warn(
                    "CQ_THREADS=0 rejected (zero-thread pool is meaningless); using 1".to_string(),
                );
            }
            1
        }
        ThreadsSpec::Garbage => {
            if !flags.garbage.swap(true, Ordering::Relaxed) {
                warn(format!(
                    "CQ_THREADS={:?} is not a thread count; using machine parallelism",
                    raw.unwrap_or("")
                ));
            }
            machine_parallelism()
        }
    }
}

/// Returns the number of worker threads the pool uses (including the
/// dispatching caller, which always participates).
///
/// The `CQ_THREADS` environment variable is read and parsed **exactly
/// once** per process — at the first call, which in practice is pool
/// initialisation — and the result is cached. `CQ_THREADS=0` is rejected
/// (warns through cq-obs, runs single-threaded); an unparseable value
/// warns and falls back to the machine parallelism. Since the grid and
/// reduction order are thread-count independent, this value affects
/// wall-clock only, never results.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        static FLAGS: WarnOnce = WarnOnce::new();
        let raw = std::env::var("CQ_THREADS").ok();
        resolve_threads(raw.as_deref(), &FLAGS, &mut |m| cq_obs::warn_with(|| m))
    })
}

thread_local! {
    /// Per-caller cap on how many threads may execute this thread's
    /// dispatches; see [`with_thread_limit`].
    static THREAD_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Runs `f` with this thread's parallel dispatches capped at `limit`
/// executing threads (caller included). Results are unaffected — the
/// chunk grid and reduction order never depend on the executor count —
/// which is exactly what the thread-count-determinism tests use this to
/// prove. Also useful to serialise a subsystem for profiling.
pub fn with_thread_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.with(|l| l.set(self.0));
        }
    }
    let prev = THREAD_LIMIT.with(|l| l.replace(limit.max(1)));
    let _restore = Restore(prev);
    f()
}

fn current_thread_limit() -> usize {
    THREAD_LIMIT.with(|l| l.get())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking task must not wedge the pool for the rest of the
    // process; the data under these locks stays consistent regardless.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mutable completion state of one job.
struct JobState {
    /// Chunks fully executed (claim + run + record).
    done: usize,
    /// First captured panic payload, re-raised by the dispatching caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One parallel dispatch: a chunk-indexed task plus claim/completion
/// bookkeeping. Lives in an `Arc` so late-waking workers can inspect it
/// safely after the caller has returned.
struct Job {
    /// Type-erased pointer to the caller's task closure. Only valid while
    /// the dispatching caller is blocked in `dispatch` (it waits for
    /// `done == n_chunks` before returning, and chunks are claimed before
    /// execution, so no dereference can happen after it returns).
    task: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Threads that registered to execute chunks (slot 0 = the caller).
    claimers: AtomicUsize,
    /// Threads that claimed at least one chunk (telemetry; only
    /// maintained while a cq-obs sink is installed).
    active_claimers: AtomicUsize,
    /// Most chunks claimed by any single thread (telemetry; only
    /// maintained while a cq-obs sink is installed).
    max_claims: AtomicU64,
    /// Cap on `claimers` (the per-dispatch thread limit).
    max_claimers: usize,
    state: Mutex<JobState>,
    done_cv: Condvar,
}

// SAFETY: `task` crosses threads, but is only dereferenced for claimed
// chunk indices < n_chunks, all of which complete before the dispatching
// caller (which owns the closure) returns.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes chunks until the grid is exhausted. Called by
    /// the dispatching caller and by registered pool workers.
    fn run_claims(&self, pool: &Pool) {
        let busy_start = cq_obs::prof::enabled().then(cq_obs::prof::now_ns);
        let mut my_claims: u64 = 0;
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                break;
            }
            my_claims += 1;
            if cq_obs::enabled() {
                // Claim attribution, updated *before* the chunk completes
                // so the dispatcher (which waits on the last completion)
                // is guaranteed to observe every contribution.
                if my_claims == 1 {
                    self.active_claimers.fetch_add(1, Ordering::Relaxed);
                }
                self.max_claims.fetch_max(my_claims, Ordering::Relaxed);
            }
            // cq-allow(det-time-source): pool timing telemetry only; never feeds a computation
            let t0 = cq_obs::enabled().then(Instant::now);
            // SAFETY: c < n_chunks, so the caller is still blocked in
            // `dispatch` and the closure it owns is alive.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*self.task)(c) }));
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                pool.busy_ns.fetch_add(ns, Ordering::Relaxed);
                C_BUSY_NS.add(ns);
            }
            C_CHUNKS.add(1);
            let mut st = lock(&self.state);
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.done += 1;
            if st.done == self.n_chunks {
                self.done_cv.notify_all();
            }
        }
        if my_claims > 0 {
            if let Some(start) = busy_start {
                cq_obs::prof::record(
                    cq_obs::prof::POOL_BUSY,
                    cq_obs::prof::CAT_POOL,
                    start,
                    cq_obs::prof::now_ns(),
                );
            }
        }
    }
}

/// The job slot workers watch: a generation counter plus the current job.
struct JobSlot {
    seq: u64,
    job: Option<Arc<Job>>,
}

/// The process-wide persistent pool.
struct Pool {
    slot: Mutex<JobSlot>,
    wake: Condvar,
    workers_spawned: AtomicUsize,
    busy_ns: AtomicU64,
}

/// Jobs dispatched (parallel and inline), tracked outside the pool so the
/// single-threaded configuration reports too.
static JOBS: AtomicU64 = AtomicU64::new(0);
/// Chunks executed, parallel and inline.
static CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Sum over completed jobs of `max chunks claimed by one thread x threads
/// that claimed`. Divided by [`CHUNKS`]'s matching delta this yields the
/// chunk-imbalance ratio (1.0 = perfectly balanced claims). Only
/// maintained while a cq-obs sink is installed.
static CLAIM_WEIGHT: AtomicU64 = AtomicU64::new(0);
/// Nanoseconds workers spent parked between jobs. Only accumulates while
/// timeline profiling is enabled (the park path reads no clock otherwise).
static PARK_NS: AtomicU64 = AtomicU64::new(0);

fn worker_loop(pool: &'static Pool) {
    let mut last_seq = 0u64;
    loop {
        let (job, park_start) = {
            let mut slot = lock(&pool.slot);
            let mut park_start: Option<u64> = None;
            loop {
                if slot.seq != last_seq {
                    last_seq = slot.seq;
                    if let Some(j) = &slot.job {
                        break (Arc::clone(j), park_start);
                    }
                }
                if park_start.is_none() && cq_obs::prof::enabled() {
                    park_start = Some(cq_obs::prof::now_ns());
                }
                slot = pool.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(start) = park_start {
            let end = cq_obs::prof::now_ns();
            PARK_NS.fetch_add(end.saturating_sub(start), Ordering::Relaxed);
            C_PARK_NS.add(end.saturating_sub(start));
            cq_obs::prof::record(cq_obs::prof::POOL_PARK, cq_obs::prof::CAT_POOL, start, end);
        }
        // Register as a claimer unless the dispatch's thread limit is
        // already saturated (slot 0 belongs to the dispatching caller).
        if job.claimers.fetch_add(1, Ordering::Relaxed) < job.max_claimers {
            job.run_claims(pool);
        }
        // Workers park indefinitely between jobs, so the job boundary is
        // their one reliable point to hand staged timeline intervals to
        // the sink (a no-op unless profiling is on).
        cq_obs::prof::drain_thread();
    }
}

/// The one pool per process; `None` once initialised means the
/// single-threaded configuration (no workers are ever spawned).
static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();

/// Lazily initialises the pool, spawning `num_threads() - 1` parked
/// workers exactly once per process.
fn pool() -> Option<&'static Pool> {
    *POOL.get_or_init(|| {
        let threads = num_threads();
        if threads <= 1 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            slot: Mutex::new(JobSlot { seq: 0, job: None }),
            wake: Condvar::new(),
            workers_spawned: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
        }));
        let mut spawned = 0usize;
        for i in 0..threads - 1 {
            let ok = std::thread::Builder::new()
                .name(format!("cq-worker-{i}"))
                .spawn(move || worker_loop(pool))
                .is_ok();
            if ok {
                spawned += 1;
            }
        }
        pool.workers_spawned.store(spawned, Ordering::Release);
        C_SPAWNED.add(spawned as u64);
        Some(pool)
    })
}

/// Point-in-time pool telemetry; see [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned so far — 0 before the first parallel
    /// dispatch or in the single-threaded configuration, and constant
    /// afterwards (the pool spawns exactly once per process).
    pub workers_spawned: usize,
    /// Parallel + inline dispatches so far.
    pub jobs: u64,
    /// Chunks executed so far (each grid chunk counts once).
    pub chunks: u64,
    /// Nanoseconds of chunk execution on the pool path. Only accumulates
    /// while a cq-obs sink is installed (timing reads are gated to keep
    /// the disabled hot path free of clock calls).
    pub busy_ns: u64,
    /// Nanoseconds workers spent parked between jobs. Only accumulates
    /// while timeline profiling (`CQ_PROF`) is enabled.
    pub park_ns: u64,
    /// Sum over dispatches of `max chunks claimed by one thread x threads
    /// that claimed`: a delta of this divided by the matching delta of
    /// `chunks` is the chunk-imbalance ratio (>= 1.0; 1.0 = perfectly
    /// balanced). Only accumulates while a cq-obs sink is installed.
    pub claim_weight: u64,
}

impl PoolStats {
    /// Pool utilization over the window between `earlier` and `self`:
    /// busy nanoseconds per wall nanosecond per executor (`width` =
    /// workers + dispatching caller), in `(0, 1]` when the pool ran.
    /// `None` when the window is empty or nothing was dispatched.
    pub fn utilization_since(
        &self,
        earlier: &PoolStats,
        wall_ns: u64,
        width: usize,
    ) -> Option<f64> {
        let busy = self.busy_ns.checked_sub(earlier.busy_ns)?;
        if wall_ns == 0 || width == 0 || self.jobs == earlier.jobs {
            return None;
        }
        Some((busy as f64 / (wall_ns as f64 * width as f64)).min(1.0))
    }

    /// Chunk-imbalance ratio over the window between `earlier` and
    /// `self`: mean over the window's jobs of `max claims by one thread /
    /// ideal claims per thread`. 1.0 = perfectly balanced; `None` when no
    /// chunks ran in the window.
    pub fn imbalance_since(&self, earlier: &PoolStats) -> Option<f64> {
        let weight = self.claim_weight.checked_sub(earlier.claim_weight)?;
        let chunks = self.chunks.checked_sub(earlier.chunks)?;
        if chunks == 0 || weight == 0 {
            return None;
        }
        Some(weight as f64 / chunks as f64)
    }
}

/// Snapshot of the pool's counters. Does not initialise the pool.
pub fn pool_stats() -> PoolStats {
    let (workers_spawned, busy_ns) = match POOL.get().copied().flatten() {
        Some(p) => (
            p.workers_spawned.load(Ordering::Acquire),
            p.busy_ns.load(Ordering::Relaxed),
        ),
        None => (0, 0),
    };
    PoolStats {
        workers_spawned,
        jobs: JOBS.load(Ordering::Relaxed),
        chunks: CHUNKS.load(Ordering::Relaxed),
        busy_ns,
        park_ns: PARK_NS.load(Ordering::Relaxed),
        claim_weight: CLAIM_WEIGHT.load(Ordering::Relaxed),
    }
}

/// Core dispatch: runs `task(c)` for every chunk index `c in 0..n_chunks`,
/// each exactly once. Uses the pool when it helps; otherwise runs inline
/// in index order. Panics from any chunk are re-raised here.
fn dispatch<F>(n_chunks: usize, task: F)
where
    F: Fn(usize) + Sync,
{
    if n_chunks == 0 {
        return;
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    C_JOBS.add(1);
    let limit = current_thread_limit();
    let pool = if n_chunks > 1 && limit > 1 {
        pool()
    } else {
        None
    };
    let Some(pool) = pool else {
        CHUNKS.fetch_add(n_chunks as u64, Ordering::Relaxed);
        // Counted here as well as on the pool path so `pool.chunks` is a
        // pure workload counter (identical at every thread count) and the
        // trace diff gate can hold it fixed across CQ_THREADS.
        C_CHUNKS.add(n_chunks as u64);
        if cq_obs::enabled() {
            // One thread claimed everything: by definition balanced
            // (weight = chunks x 1), keeping the global ratio consistent
            // across serial and parallel dispatches.
            CLAIM_WEIGHT.fetch_add(n_chunks as u64, Ordering::Relaxed);
        }
        for c in 0..n_chunks {
            task(c);
        }
        return;
    };
    let job = Arc::new(Job {
        // Erase the closure's lifetime for storage in the shared Job; the
        // safety argument lives on the `task` field and `run_claims`.
        task: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                &task as &(dyn Fn(usize) + Sync) as *const (dyn Fn(usize) + Sync + '_),
            )
        },
        n_chunks,
        next: AtomicUsize::new(0),
        claimers: AtomicUsize::new(1),
        active_claimers: AtomicUsize::new(0),
        max_claims: AtomicU64::new(0),
        max_claimers: limit.min(pool.workers_spawned.load(Ordering::Acquire) + 1),
        state: Mutex::new(JobState {
            done: 0,
            panic: None,
        }),
        done_cv: Condvar::new(),
    });
    let seq = {
        let mut slot = lock(&pool.slot);
        slot.seq += 1;
        slot.job = Some(Arc::clone(&job));
        pool.wake.notify_all();
        slot.seq
    };
    CHUNKS.fetch_add(n_chunks as u64, Ordering::Relaxed);
    // The caller is claimer 0: it always participates.
    job.run_claims(pool);
    let payload = {
        let mut st = lock(&job.state);
        while st.done < job.n_chunks {
            st = job.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.panic.take()
    };
    {
        let mut slot = lock(&pool.slot);
        if slot.seq == seq {
            slot.job = None; // don't keep the dead task pointer reachable
        }
    }
    if cq_obs::enabled() {
        // Every claim updated these counters before its completion was
        // recorded, and we waited for the last completion under the job
        // mutex, so both reads are complete for this job.
        let active = job.active_claimers.load(Ordering::Relaxed).max(1) as u64;
        let max_claims = job.max_claims.load(Ordering::Relaxed);
        CLAIM_WEIGHT.fetch_add(max_claims.saturating_mul(active), Ordering::Relaxed);
    }
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// Default cap on chunks per job: enough for dynamic load balancing on
/// any plausible machine, small enough that claim traffic is negligible.
/// A constant, so grids never depend on the executing thread count.
const DEFAULT_MAX_CHUNKS: usize = 256;

/// A fixed partition of `0..len` into contiguous chunks, derived **only**
/// from the problem size — never from the thread count. Equal problem
/// sizes produce equal grids on every machine and at every `CQ_THREADS`,
/// which is the foundation of the runtime's determinism: reductions that
/// combine per-chunk partials in index order are reproducible wherever
/// and however the chunks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGrid {
    len: usize,
    chunk: usize,
    n_chunks: usize,
}

impl ChunkGrid {
    /// Grid over `0..len` with chunks of at least `min_chunk` elements
    /// and at most `DEFAULT_MAX_CHUNKS` chunks.
    pub fn new(len: usize, min_chunk: usize) -> Self {
        Self::with_max_chunks(len, min_chunk, DEFAULT_MAX_CHUNKS)
    }

    /// Grid over `0..len` with chunks of at least `min_chunk` elements
    /// and at most `max_chunks` chunks. Callers that materialise one
    /// reduction partial per chunk use `max_chunks` to bound that memory.
    pub fn with_max_chunks(len: usize, min_chunk: usize, max_chunks: usize) -> Self {
        let target = (len / min_chunk.max(1)).clamp(1, max_chunks.max(1));
        let chunk = len.div_ceil(target).max(1);
        let n_chunks = len.div_ceil(chunk).max(1);
        ChunkGrid {
            len,
            chunk,
            n_chunks,
        }
    }

    /// Number of chunks (≥ 1; a zero-length grid has one empty chunk).
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Total length covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid covers an empty range.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Half-open element range of chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= n_chunks()`.
    pub fn range(&self, c: usize) -> (usize, usize) {
        assert!(c < self.n_chunks, "chunk index out of range");
        (c * self.chunk, ((c + 1) * self.chunk).min(self.len))
    }
}

/// Runs `f(chunk_index, start, end)` over every chunk of `grid` in
/// parallel. The chunk index lets callers attribute per-chunk state
/// (scratch buffers, reduction partials) deterministically. An empty grid
/// runs nothing; if the grid has one chunk or only one thread is
/// available the closure runs inline on the caller's thread.
///
/// # Example
///
/// ```
/// use cq_tensor::par::{parallel_for_chunks, ChunkGrid};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let total = AtomicUsize::new(0);
/// parallel_for_chunks(ChunkGrid::new(1000, 64), |_, start, end| {
///     total.fetch_add(end - start, Ordering::Relaxed);
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 1000);
/// ```
pub fn parallel_for_chunks<F>(grid: ChunkGrid, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    if grid.is_empty() {
        return;
    }
    dispatch(grid.n_chunks(), |c| {
        let (start, end) = grid.range(c);
        f(c, start, end);
    });
}

/// Maps every chunk of `grid` to a value and returns the values in
/// **chunk-index order** — the deterministic-reduction primitive. Each
/// chunk gets a fresh accumulator from `init`; `f(chunk_index, start,
/// end, &mut acc)` fills it. Combining the returned partials left to
/// right reproduces the same result at any thread count, because the
/// grid (and therefore each partial) never depends on the executor
/// count.
pub fn parallel_map_chunks<T, I, F>(grid: ChunkGrid, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(usize, usize, usize, &mut T) + Sync,
{
    let n = grid.n_chunks();
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let base = SendPtr(out.as_mut_ptr());
        dispatch(n, |c| {
            let mut acc = init();
            let (start, end) = grid.range(c);
            f(c, start, end, &mut acc);
            // SAFETY: each chunk index is claimed exactly once, so slot
            // `c` is written by exactly one thread; `out` outlives the
            // dispatch, which blocks until every chunk completes.
            unsafe { *base.get().add(c) = Some(acc) };
        });
    }
    out.into_iter()
        .map(|v| v.expect("dispatch ran every chunk")) // cq-check: allow — dispatch guarantees each chunk executed
        .collect()
}

/// Runs `f(i)` for every `i` in `0..len`, dynamically load-balanced.
///
/// Unlike [`parallel_for_chunks`], work items are claimed one at a time, which
/// suits heterogeneous per-item cost (e.g. per-image augmentation where
/// some transforms are more expensive).
pub fn parallel_for_each<F>(len: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    dispatch(len, f);
}

/// Splits `out` into disjoint mutable chunks of `chunk_len` elements and
/// runs `f(chunk_index, chunk)` on each in parallel.
///
/// This is the write-side companion of [`parallel_for_each`]: each logical
/// item owns a fixed-size slice of the output buffer (e.g. one image in a
/// batch), so no synchronisation is needed.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `chunk_len`.
pub fn parallel_chunks_mut<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert_eq!(
        out.len() % chunk_len,
        0,
        "buffer not a multiple of chunk_len"
    );
    let n = out.len() / chunk_len;
    let base = SendPtr(out.as_mut_ptr());
    dispatch(n, |i| {
        // SAFETY: each index i is claimed exactly once, and chunks
        // [i*chunk_len, (i+1)*chunk_len) are disjoint; the dispatch
        // blocks until every chunk completes, so the buffer outlives
        // every worker access.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(i * chunk_len), chunk_len) };
        f(i, chunk);
    });
}

/// Two-buffer variant of [`parallel_chunks_mut`]: splits `a` and `b` into
/// the same number of disjoint chunks (`chunk_a` / `chunk_b` elements
/// each) and runs `f(i, chunk_a, chunk_b)` per index. Built for producers
/// that fill paired outputs per item — e.g. the two augmented views of
/// one image, or an image's values and its int8 codes — without a lock
/// around the whole buffer.
///
/// # Panics
///
/// Panics if either buffer is not a multiple of its chunk length or the
/// two buffers disagree on the number of chunks.
pub fn parallel_chunks_mut_pair<A, B, F>(
    a: &mut [A],
    b: &mut [B],
    chunk_a: usize,
    chunk_b: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk lengths must be positive");
    assert_eq!(a.len() % chunk_a, 0, "buffer A not a multiple of chunk_a");
    assert_eq!(b.len() % chunk_b, 0, "buffer B not a multiple of chunk_b");
    let n = a.len() / chunk_a;
    assert_eq!(
        n,
        b.len() / chunk_b,
        "buffers disagree on the number of chunks"
    );
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    dispatch(n, |i| {
        // SAFETY: per-index chunks are disjoint in each buffer and every
        // index is claimed exactly once; both buffers outlive the
        // dispatch, which blocks until all chunks complete.
        let ca = unsafe { std::slice::from_raw_parts_mut(pa.get().add(i * chunk_a), chunk_a) };
        let cb = unsafe { std::slice::from_raw_parts_mut(pb.get().add(i * chunk_b), chunk_b) };
        f(i, ca, cb);
    });
}

/// Raw pointer wrapper asserting cross-thread transfer is safe because the
/// caller guarantees disjoint writes.
struct SendPtr<T>(*mut T);
// SAFETY: used only with disjoint index ranges per thread.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field reads) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parse_cq_threads_rejects_zero_and_garbage() {
        // Pure-function tests: no env mutation, so safe under a parallel
        // test harness.
        assert_eq!(parse_cq_threads(None), ThreadsSpec::Unset);
        assert_eq!(parse_cq_threads(Some("4")), ThreadsSpec::Count(4));
        assert_eq!(parse_cq_threads(Some(" 2 ")), ThreadsSpec::Count(2));
        assert_eq!(parse_cq_threads(Some("0")), ThreadsSpec::Zero);
        assert_eq!(parse_cq_threads(Some("banana")), ThreadsSpec::Garbage);
        assert_eq!(parse_cq_threads(Some("")), ThreadsSpec::Garbage);
        assert_eq!(parse_cq_threads(Some("-3")), ThreadsSpec::Garbage);
        assert_eq!(parse_cq_threads(Some("1.5")), ThreadsSpec::Garbage);
    }

    #[test]
    fn zero_then_garbage_both_warn_once_each() {
        // Regression: a single shared once-flag let whichever path fired
        // first suppress the other warning forever. Each ordering must
        // produce both diagnostics, and repeats must stay silent.
        for orderings in [[Some("0"), Some("junk")], [Some("junk"), Some("0")]] {
            let flags = WarnOnce::new();
            let mut messages: Vec<String> = Vec::new();
            for raw in orderings {
                resolve_threads(raw, &flags, &mut |m| messages.push(m));
            }
            assert_eq!(messages.len(), 2, "{orderings:?}: {messages:?}");
            assert!(
                messages.iter().any(|m| m.contains("CQ_THREADS=0")),
                "{messages:?}"
            );
            assert!(
                messages.iter().any(|m| m.contains("not a thread count")),
                "{messages:?}"
            );
            // Second round: both flags latched, no further warnings.
            for raw in orderings {
                resolve_threads(raw, &flags, &mut |m| messages.push(m));
            }
            assert_eq!(messages.len(), 2, "warnings repeated: {messages:?}");
        }
    }

    #[test]
    fn resolve_threads_values() {
        let flags = WarnOnce::new();
        let silent = &mut |m: String| panic!("unexpected warning: {m}");
        assert_eq!(resolve_threads(Some("3"), &flags, silent), 3);
        assert_eq!(resolve_threads(None, &flags, silent), machine_parallelism());
        let flags = WarnOnce::new();
        assert_eq!(resolve_threads(Some("0"), &flags, &mut |_| {}), 1);
        assert_eq!(
            resolve_threads(Some("x"), &flags, &mut |_| {}),
            machine_parallelism()
        );
    }

    #[test]
    fn chunk_grid_covers_range_without_gaps() {
        for len in [0usize, 1, 7, 63, 64, 65, 1000, 4096, 100_000] {
            for min_chunk in [1usize, 8, 64, 1024] {
                let g = ChunkGrid::new(len, min_chunk);
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for c in 0..g.n_chunks() {
                    let (s, e) = g.range(c);
                    assert_eq!(s, prev_end, "gap at chunk {c} (len {len})");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len, "len {len} min {min_chunk}");
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn chunk_grid_is_thread_count_independent() {
        // The grid is a pure function of (len, min_chunk, max_chunks):
        // nothing about it may consult num_threads() or the machine.
        let a = ChunkGrid::new(1234, 8);
        let b = ChunkGrid::new(1234, 8);
        assert_eq!(a, b);
        // Chunks respect the minimum size and the grid is non-trivial.
        let (s0, e0) = a.range(0);
        assert!(e0 - s0 >= 8);
        assert!(a.n_chunks() > 1 && a.n_chunks() <= 1234 / 8);
        let capped = ChunkGrid::with_max_chunks(1 << 20, 1, 16);
        assert_eq!(capped.n_chunks(), 16);
    }

    #[test]
    fn parallel_for_chunks_covers_range_exactly() {
        let hits = AtomicUsize::new(0);
        parallel_for_chunks(ChunkGrid::new(10_000, 16), |_, s, e| {
            hits.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn parallel_for_chunks_empty_grid_is_noop() {
        parallel_for_chunks(ChunkGrid::new(0, 16), |_, _, _| panic!("must not run"));
    }

    #[test]
    fn parallel_for_each_visits_each_index_once() {
        let n = 257;
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_each(n, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_chunks_returns_partials_in_chunk_order() {
        let grid = ChunkGrid::with_max_chunks(1000, 1, 13);
        let partials = parallel_map_chunks(
            grid,
            || 0usize,
            |c, s, e, acc| {
                assert_eq!((s, e), grid.range(c));
                *acc = (s..e).sum::<usize>();
            },
        );
        assert_eq!(partials.len(), grid.n_chunks());
        let total: usize = partials.iter().sum();
        assert_eq!(total, (0..1000).sum::<usize>());
        // Partials must arrive in chunk order, not completion order.
        let direct: Vec<usize> = (0..grid.n_chunks())
            .map(|c| {
                let (s, e) = grid.range(c);
                (s..e).sum()
            })
            .collect();
        assert_eq!(partials, direct);
    }

    #[test]
    fn parallel_chunks_mut_writes_disjoint_chunks() {
        let mut buf = vec![0.0f32; 12 * 7];
        parallel_chunks_mut(&mut buf, 7, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for (i, chunk) in buf.chunks(7).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn parallel_chunks_mut_pair_fills_both_buffers() {
        let mut a = vec![0.0f32; 6 * 4];
        let mut b = vec![0.0f32; 6 * 2];
        parallel_chunks_mut_pair(&mut a, &mut b, 4, 2, |i, ca, cb| {
            ca.fill(i as f32);
            cb.fill(-(i as f32));
        });
        for (i, chunk) in a.chunks(4).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32));
        }
        for (i, chunk) in b.chunks(2).enumerate() {
            assert!(chunk.iter().all(|&v| v == -(i as f32)));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of chunk_len")]
    fn parallel_chunks_mut_rejects_ragged_buffer() {
        let mut buf = vec![0.0f32; 10];
        parallel_chunks_mut(&mut buf, 3, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "chunk 3 exploded")]
    fn worker_panic_propagates_to_caller() {
        parallel_for_each(8, |i| {
            if i == 3 {
                panic!("chunk 3 exploded");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let caught = std::panic::catch_unwind(|| {
            parallel_for_each(8, |i| {
                if i == 2 {
                    panic!("boom");
                }
            })
        });
        assert!(caught.is_err());
        // The pool must keep dispatching normally afterwards.
        let hits = AtomicUsize::new(0);
        parallel_for_each(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn pool_spawns_at_most_once_across_dispatches() {
        // Warm the pool, then check repeated dispatches never spawn again.
        let grid = ChunkGrid::new(10_000, 8);
        parallel_for_chunks(grid, |_, _, _| {});
        let first = pool_stats();
        for _ in 0..32 {
            parallel_for_chunks(grid, |_, _, _| {});
        }
        let after = pool_stats();
        assert_eq!(
            first.workers_spawned, after.workers_spawned,
            "pool must spawn exactly once per process"
        );
        assert!(after.jobs >= first.jobs + 32);
        assert!(after.chunks > first.chunks);
    }

    #[test]
    fn thread_limit_does_not_change_results() {
        // Fill a buffer through every public entry point at several
        // thread limits; all runs must agree bitwise.
        let run = |limit: usize| -> Vec<f32> {
            with_thread_limit(limit, || {
                let mut buf = vec![0.0f32; 512];
                parallel_chunks_mut(&mut buf, 8, |i, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 31 + j) as f32 * 0.25;
                    }
                });
                let grid = ChunkGrid::new(512, 16);
                let partials = parallel_map_chunks(
                    grid,
                    || 0.0f32,
                    |_, s, e, acc| {
                        for v in &buf[s..e] {
                            *acc += v;
                        }
                    },
                );
                buf.extend(partials);
                buf
            })
        };
        let base = run(1);
        for limit in [2, 5, 8] {
            assert_eq!(run(limit), base, "limit {limit} drifted");
        }
    }
}
