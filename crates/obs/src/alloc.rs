//! Opt-in allocation counting and peak-RSS inspection.
//!
//! Libraries cannot install a `#[global_allocator]`, so the counting
//! allocator lives here as a wrapper that *binaries* opt into:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cq_obs::alloc::CountingAlloc = cq_obs::alloc::CountingAlloc::system();
//! ```
//!
//! Every `alloc`/`alloc_zeroed`/`realloc` call bumps one relaxed atomic;
//! `dealloc` is passed through untouched. [`alloc_calls`] reads the
//! counter, returning `None` in processes that never installed the
//! wrapper (the counter is necessarily non-zero before `main` runs when
//! it is installed — the Rust runtime allocates during startup).
//!
//! The training engine samples [`alloc_calls`], [`peak_rss_kb`] and
//! [`minor_faults`] at phase boundaries and emits them as `mem.*` step
//! metrics, which is how peak memory, allocation churn and freshly
//! mapped pages per phase surface in traces and the summary report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` wrapper that counts allocation calls (alloc,
/// alloc_zeroed, realloc) into a process-global atomic. Deallocation is
/// uncounted: the metric of interest is allocation churn.
#[derive(Debug, Default)]
pub struct CountingAlloc<A = System> {
    inner: A,
}

impl CountingAlloc<System> {
    /// Counting wrapper around the system allocator.
    pub const fn system() -> Self {
        CountingAlloc { inner: System }
    }
}

impl<A> CountingAlloc<A> {
    /// Counting wrapper around an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        CountingAlloc { inner }
    }
}

// SAFETY: defers every operation to the inner allocator unchanged; the
// counter increment has no effect on the returned memory.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        self.inner.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        self.inner.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        self.inner.realloc(ptr, layout, new_size)
    }
}

/// Total allocation calls since process start, or `None` when no
/// [`CountingAlloc`] is installed as the global allocator (detected by
/// the counter never having moved — an installed wrapper counts runtime
/// startup allocations before any caller can read it).
pub fn alloc_calls() -> Option<u64> {
    match ALLOC_CALLS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minor page faults of this process so far (`minflt` from
/// `/proc/self/stat`), or `None` where procfs is unavailable. Each one is
/// a page the kernel mapped on first touch, so a step that reuses its
/// buffers instead of allocating fresh ones takes almost none.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesized and may hold spaces;
    // `minflt` is field 10, the 8th after the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alloc_counts_through() {
        let a = CountingAlloc::system();
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let layout = Layout::from_size_align(64, 8).expect("layout");
        // SAFETY: valid layout; freed immediately below.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert_eq!(*p, 0);
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).expect("layout"));
        }
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(after - before, 3, "alloc + alloc_zeroed + realloc");
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("procfs VmHWM");
            assert!(kb > 0);
        }
    }

    #[test]
    fn touching_fresh_pages_counts_minor_faults() {
        if cfg!(target_os = "linux") {
            let before = minor_faults().expect("procfs minflt");
            // 8 MiB of zeros are mapped lazily; writing them faults pages in.
            let mut v = vec![0u8; 8 << 20];
            for page in v.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&v);
            let after = minor_faults().expect("procfs minflt");
            assert!(after >= before + 1000, "{before} -> {after}");
        }
    }
}
