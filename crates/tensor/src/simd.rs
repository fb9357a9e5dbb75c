//! Runtime SIMD level detection shared by every dispatched kernel family
//! that has one body compiled per vector width: the f32 GEMM drivers in
//! [`crate::gemm`], the elementwise quantizer kernels in `cq-quant` and
//! the fused elementwise, BatchNorm and activation kernels in `cq-nn`.
//!
//! A level only selects *how wide* a kernel body is compiled; each family
//! proves its levels bit-identical to one another, so detection affects
//! speed and never results. The widest level is detected once per process.
//! Under Miri only [`SimdLevel::Portable`] is reported, so the interpreter
//! runs the plain-Rust instantiation.
//!
//! Elementwise kernels share one dispatcher: a kernel implements [`Body`]
//! with an `#[inline(always)]` `run::<L>()`, and [`dispatch`] calls it
//! from one `#[target_feature]` entry per level, so the same source is
//! compiled at 16 lanes (AVX-512F), 8 (AVX2) and 8 (portable).
//!
//! (The i8 tile kernels keep their own [`crate::gemm::int8::I8Level`]:
//! their 512-bit `vpmaddwd` needs AVX-512BW, which AVX-512F alone does
//! not imply.)

use std::cell::Cell;
use std::sync::OnceLock;

/// Vector width a kernel body is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain Rust, vectorized at whatever width the default target has.
    Portable,
    /// x86-64 with 256-bit vectors (`avx2`).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// x86-64 with 512-bit vectors (`avx512f`).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdLevel {
    /// Every level this host can run, narrowest first. Only
    /// [`SimdLevel::Portable`] under Miri.
    pub fn supported() -> Vec<SimdLevel> {
        // Only pushed to on x86-64 outside Miri.
        #[allow(unused_mut)]
        let mut levels = vec![SimdLevel::Portable];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(SimdLevel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(SimdLevel::Avx512);
            }
        }
        levels
    }

    /// The level kernels called from this thread run at: the widest
    /// level this host can run, detected once per process, unless
    /// [`with_simd_level`] set another.
    pub fn detect() -> SimdLevel {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        LEVEL_OVERRIDE.with(Cell::get).unwrap_or_else(|| {
            *LEVEL.get_or_init(|| *Self::supported().last().unwrap_or(&SimdLevel::Portable))
        })
    }

    /// Short name for telemetry and machine fingerprints (`baseline` for
    /// the portable level).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "baseline",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => "avx512",
        }
    }
}

thread_local! {
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// Runs `f` with [`SimdLevel::detect`] reporting `level` on this thread,
/// so the kernels `f` calls run at `level`: how layer-level tests cover
/// every level the host supports. A kernel that detects its level on a
/// pool worker still runs at the widest one; levels change speed, never
/// bits.
///
/// # Panics
///
/// Panics if the host cannot run `level`.
pub fn with_simd_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|l| l.set(self.0));
        }
    }
    assert!(
        SimdLevel::supported().contains(&level),
        "with_simd_level: host cannot run {level:?}"
    );
    let _restore = Restore(LEVEL_OVERRIDE.with(|l| l.replace(Some(level))));
    f()
}

/// One kernel body, generic over the lane count `L` of the level it is
/// compiled at (16 at AVX-512F, 8 at AVX2 and portable). Implementations
/// mark `run` `#[inline(always)]`, so each [`dispatch`] entry compiles
/// the body under its own target features.
pub trait Body {
    /// What the kernel returns.
    type Out;
    /// Runs the kernel at a lane count of `L`.
    fn run<const L: usize>(self) -> Self::Out;
}

/// Runs `body` at `level`.
///
/// # Panics
///
/// Panics if the host cannot run `level` (only reachable from tests; the
/// production entry points pass [`SimdLevel::detect`]).
pub fn dispatch<B: Body>(level: SimdLevel, body: B) -> B::Out {
    match level {
        SimdLevel::Portable => body.run::<8>(),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(std::arch::is_x86_feature_detected!("avx2"));
            // SAFETY: AVX2 support was just checked.
            unsafe { run_avx2(body) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            assert!(std::arch::is_x86_feature_detected!("avx512f"));
            // SAFETY: AVX-512F support was just checked.
            unsafe { run_avx512(body) }
        }
    }
}

/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<B: Body>(body: B) -> B::Out {
    body.run::<8>()
}

/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<B: Body>(body: B) -> B::Out {
    body.run::<16>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_level_is_the_widest_supported() {
        let levels = SimdLevel::supported();
        assert_eq!(levels[0], SimdLevel::Portable);
        assert_eq!(Some(&SimdLevel::detect()), levels.last());
        for &level in &levels {
            assert_eq!(with_simd_level(level, SimdLevel::detect), level);
        }
        assert_eq!(Some(&SimdLevel::detect()), levels.last());
    }
}
