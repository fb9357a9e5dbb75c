//! Numerics sanitizer: detect NaN / Inf / denormal values and
//! out-of-range fake-quantized values, attributed to the producing op.
//!
//! Two layers of machinery live here:
//!
//! - **Pure scans** ([`scan`], [`scan_quant`]) inspect a buffer and return
//!   the first [`Violation`], if any. They have no hidden state and are
//!   what `cq-nn`'s layer-level checks (driven by `ForwardCtx::sanitize`)
//!   call directly.
//! - **Thread-local recording** ([`enable`], [`take_violations`]): when
//!   enabled, instrumented tensor ops push every violation they produce
//!   into a per-thread buffer for later inspection. The per-op call sites
//!   inside this crate are compiled only with the `sanitize` cargo
//!   feature, so release builds pay nothing.
//!
//! A NaN/Inf is always a violation. Denormals are reported with their own
//! [`ViolationKind::Denormal`] so callers can treat them as warnings —
//! gradual underflow is legal IEEE behaviour but usually indicates scales
//! collapsing somewhere upstream.

use std::cell::RefCell;
use std::fmt;

use crate::Tensor;

/// The class of numeric defect found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ViolationKind {
    /// A not-a-number value.
    Nan,
    /// A positive or negative infinity.
    Inf,
    /// A subnormal (denormal) value — legal but usually a warning sign.
    Denormal,
    /// A fake-quantized value outside the quantizer's clipping range.
    QuantRange {
        /// Lower edge of the quantization range.
        lo: f32,
        /// Upper edge of the quantization range.
        hi: f32,
    },
}

impl ViolationKind {
    /// Whether this defect should fail a sanitized forward pass (NaN/Inf
    /// and quantizer range escapes do; denormals are warnings).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ViolationKind::Denormal)
    }
}

/// One detected numeric defect, attributed to the op that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the producing op (e.g. `matmul`, `fake_quant`, or a layer
    /// label from `cq-nn`).
    pub op: String,
    /// Shape of the offending buffer.
    pub dims: Vec<usize>,
    /// Flat index of the first offending element.
    pub index: usize,
    /// The offending value.
    pub value: f32,
    /// What kind of defect it is.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ViolationKind::Nan => "NaN".to_string(),
            ViolationKind::Inf => "Inf".to_string(),
            ViolationKind::Denormal => "denormal".to_string(),
            ViolationKind::QuantRange { lo, hi } => {
                format!("value outside quant range [{lo}, {hi}]")
            }
        };
        write!(
            f,
            "op `{}` produced {} (value {}) at flat index {} of shape {:?}",
            self.op, what, self.value, self.index, self.dims
        )
    }
}

/// Scans `data` for the first NaN/Inf (fatal) or, failing that, the first
/// denormal (warning). Returns `None` for a clean buffer.
pub fn scan(op: &str, dims: &[usize], data: &[f32]) -> Option<Violation> {
    let mut denormal: Option<(usize, f32)> = None;
    for (i, &v) in data.iter().enumerate() {
        if v.is_nan() {
            return Some(Violation {
                op: op.to_string(),
                dims: dims.to_vec(),
                index: i,
                value: v,
                kind: ViolationKind::Nan,
            });
        }
        if v.is_infinite() {
            return Some(Violation {
                op: op.to_string(),
                dims: dims.to_vec(),
                index: i,
                value: v,
                kind: ViolationKind::Inf,
            });
        }
        if denormal.is_none() && v.is_subnormal() {
            denormal = Some((i, v));
        }
    }
    denormal.map(|(index, value)| Violation {
        op: op.to_string(),
        dims: dims.to_vec(),
        index,
        value,
        kind: ViolationKind::Denormal,
    })
}

/// [`scan`] of a tensor's elements in either layout. A lane tensor's pad
/// lanes are skipped, and a violation's index is the element's row-major
/// one (found in storage order).
pub fn scan_tensor(op: &str, t: &crate::Tensor) -> Option<Violation> {
    if !t.is_lanes() {
        return scan(op, t.dims(), t.as_slice());
    }
    let violation = |index, value, kind| Violation {
        op: op.to_string(),
        dims: t.dims().to_vec(),
        index,
        value,
        kind,
    };
    let mut denormal = None;
    for (i, &v) in t.as_slice().iter().enumerate() {
        let Some(index) = crate::lanes::nchw_index(t.dims(), i) else {
            continue;
        };
        if v.is_nan() {
            return Some(violation(index, v, ViolationKind::Nan));
        }
        if v.is_infinite() {
            return Some(violation(index, v, ViolationKind::Inf));
        }
        if denormal.is_none() && v.is_subnormal() {
            denormal = Some((index, v));
        }
    }
    denormal.map(|(index, value)| violation(index, value, ViolationKind::Denormal))
}

/// [`scan`] plus a range check for fake-quantized buffers: every finite
/// value must lie in `[lo - slack, hi + slack]`.
pub fn scan_quant(
    op: &str,
    dims: &[usize],
    data: &[f32],
    lo: f32,
    hi: f32,
    slack: f32,
) -> Option<Violation> {
    if let Some(v) = scan(op, dims, data) {
        if v.kind.is_fatal() {
            return Some(v);
        }
    }
    for (i, &v) in data.iter().enumerate() {
        if v < lo - slack || v > hi + slack {
            return Some(Violation {
                op: op.to_string(),
                dims: dims.to_vec(),
                index: i,
                value: v,
                kind: ViolationKind::QuantRange { lo, hi },
            });
        }
    }
    None
}

thread_local! {
    static STATE: RefCell<SanitizeState> = const { RefCell::new(SanitizeState { enabled: false, violations: Vec::new() }) };
}

struct SanitizeState {
    enabled: bool,
    violations: Vec<Violation>,
}

/// Turns on violation recording for the current thread.
pub fn enable() {
    STATE.with(|s| s.borrow_mut().enabled = true);
}

/// Turns off violation recording for the current thread (the buffer is
/// kept until [`take_violations`]).
pub fn disable() {
    STATE.with(|s| s.borrow_mut().enabled = false);
}

/// Whether recording is enabled on the current thread.
pub fn is_enabled() -> bool {
    STATE.with(|s| s.borrow().enabled)
}

/// Records a violation into the current thread's buffer (regardless of the
/// enabled flag — callers gate themselves).
pub fn record(v: Violation) {
    STATE.with(|s| s.borrow_mut().violations.push(v));
}

/// Drains and returns the current thread's recorded violations.
pub fn take_violations() -> Vec<Violation> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().violations))
}

/// RAII guard enabling recording for a scope.
///
/// # Example
///
/// ```
/// let _guard = cq_tensor::sanitize::ScopeGuard::new();
/// assert!(cq_tensor::sanitize::is_enabled());
/// ```
#[derive(Debug)]
pub struct ScopeGuard(());

impl ScopeGuard {
    /// Enables recording until the guard is dropped.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        enable();
        ScopeGuard(())
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        disable();
    }
}

/// Per-op instrumentation hook: when recording is enabled, scans `t` and
/// records any violation. Call sites inside this crate are gated on the
/// `sanitize` cargo feature; this function itself always exists so
/// downstream crates can instrument their own ops without feature
/// plumbing.
#[inline]
pub fn guard(op: &str, t: &Tensor) {
    if is_enabled() {
        if let Some(v) = scan(op, t.dims(), t.as_slice()) {
            record(v);
        }
    }
}

/// Slice-level variant of [`guard`] for ops that work on raw buffers.
#[inline]
pub fn guard_slice(op: &str, data: &[f32]) {
    if is_enabled() {
        if let Some(v) = scan(op, &[data.len()], data) {
            record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finds_first_nan() {
        let data = [1.0, f32::NAN, f32::INFINITY];
        let v = scan("op", &[3], &data).unwrap();
        assert_eq!(v.kind, ViolationKind::Nan);
        assert_eq!(v.index, 1);
        assert!(v.to_string().contains("op `op`"));
        assert!(v.to_string().contains("NaN"));
    }

    #[test]
    fn scan_finds_inf_and_denormal() {
        let v = scan("x", &[2], &[0.0, f32::NEG_INFINITY]).unwrap();
        assert_eq!(v.kind, ViolationKind::Inf);
        assert!(v.kind.is_fatal());

        let tiny = f32::MIN_POSITIVE / 2.0;
        let v = scan("x", &[2], &[1.0, tiny]).unwrap();
        assert_eq!(v.kind, ViolationKind::Denormal);
        assert_eq!(v.index, 1);
        assert!(!v.kind.is_fatal());
    }

    #[test]
    fn scan_clean_buffer_is_none() {
        assert!(scan("x", &[3], &[0.0, -1.5, 2.0]).is_none());
    }

    #[test]
    fn scan_quant_flags_range_escape() {
        let v = scan_quant("fq", &[3], &[0.0, 0.5, 1.2], 0.0, 1.0, 0.05).unwrap();
        assert!(matches!(v.kind, ViolationKind::QuantRange { .. }));
        assert_eq!(v.index, 2);
        assert!(scan_quant("fq", &[2], &[0.0, 1.04], 0.0, 1.0, 0.05).is_none());
    }

    #[test]
    fn recording_is_scoped_and_drainable() {
        assert!(!is_enabled());
        {
            let _g = ScopeGuard::new();
            assert!(is_enabled());
            guard("bad", &Tensor::from_slice(&[f32::NAN]));
            guard_slice("also_bad", &[f32::INFINITY]);
            guard("fine", &Tensor::from_slice(&[1.0]));
        }
        assert!(!is_enabled());
        let vs = take_violations();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].op, "bad");
        assert_eq!(vs[1].op, "also_bad");
        assert!(take_violations().is_empty());
    }

    #[test]
    fn guard_is_inert_when_disabled() {
        guard("bad", &Tensor::from_slice(&[f32::NAN]));
        assert!(take_violations().is_empty());
    }
}
