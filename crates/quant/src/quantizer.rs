//! The linear quantizer of Eq. 10 and fake-quantization helpers.
//!
//! Eq. 10 of the paper:
//!
//! ```text
//! A_q = S_a * round(A / S_a),   S_a = A_range / (2^q - 1)
//! ```
//!
//! where `A_range` is the dynamic range (max − min) of the tensor being
//! quantized. The paper prints the bracket as ⌊·⌋; its reference [5]
//! (Jacob et al.) and all standard linear quantizers round to nearest, so
//! rounding is the default here and floor is available as
//! [`QuantMode::Floor`] for an exact-notation ablation (see the
//! `quant_mode` bench).
//!
//! *Fake* quantization maps a float tensor onto the quantized grid while
//! staying in `f32`, so the surrounding network code is unchanged; the
//! backward pass uses the straight-through estimator (gradients pass
//! unchanged), the standard choice in quantization-aware training.

use cq_tensor::lanes::PadLanes;
use cq_tensor::simd::{dispatch, SimdLevel};
use cq_tensor::Tensor;

use crate::{kernel, Precision};

// Fake-quantized element counter; no-op unless a cq-obs sink is installed.
static FAKE_QUANT_ELEMS: cq_obs::Counter = cq_obs::Counter::new("quant.fake_quant.elems");

/// Rounding rule used when projecting onto the quantization grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// Round to nearest grid point (standard linear quantizer, default).
    #[default]
    Round,
    /// Floor to the grid point below (the paper's literal Eq. 10 notation).
    Floor,
}

/// Per-forward-pass quantization configuration: the precision applied to
/// weights and to activations, plus the rounding mode.
///
/// Contrastive Quant quantizes *both* weights and activations (§3.4); the
/// two fields let ablations decouple them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantConfig {
    /// Precision applied to model weights.
    pub weight: Precision,
    /// Precision applied to intermediate activations.
    pub act: Precision,
    /// Rounding rule.
    pub mode: QuantMode,
}

impl QuantConfig {
    /// Full-precision configuration (no quantization anywhere).
    pub fn fp() -> Self {
        QuantConfig {
            weight: Precision::Fp,
            act: Precision::Fp,
            mode: QuantMode::Round,
        }
    }

    /// Same precision for weights and activations — how the paper uses its
    /// sampled `q` values.
    pub fn uniform(p: Precision) -> Self {
        QuantConfig {
            weight: p,
            act: p,
            mode: QuantMode::Round,
        }
    }

    /// Whether this config performs any quantization.
    pub fn is_quantized(&self) -> bool {
        self.weight.is_quantized() || self.act.is_quantized()
    }

    /// Returns a copy using the given rounding mode.
    pub fn with_mode(mut self, mode: QuantMode) -> Self {
        self.mode = mode;
        self
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig::fp()
    }
}

/// Applies the Eq. 10 linear quantizer to `t`, returning the fake-quantized
/// tensor. `Precision::Fp` and constant tensors (zero dynamic range) are
/// returned unchanged.
///
/// A lane tensor (`cq_tensor::lanes`) is quantized in its layout, on the
/// range of its real elements: pad lanes never enter the scan.
pub fn fake_quant(t: &Tensor, precision: Precision, mode: QuantMode) -> Tensor {
    let mut out = t.clone();
    match PadLanes::of(t) {
        None => fake_quant_into(out.as_mut_slice(), precision, mode),
        Some(pad) => {
            let mut scan = RangeScan::new();
            pad.real_runs(0, t.len(), |lo, hi| {
                scan.merge(RangeScan::scan(&t.as_slice()[lo..hi]));
            });
            let elems = t.shape().len();
            fake_quant_scanned_lanes(out.as_mut_slice(), elems, scan, precision, mode);
        }
    }
    out
}

/// Accumulated min/max/finiteness of a value stream — the reduction half
/// of [`fake_quant_into`], split out so a producing pass (e.g. the fused
/// graph executor) can gather it while each value is still in cache and
/// hand it to [`fake_quant_scanned`], eliding the quantizer's own
/// whole-buffer re-read.
///
/// `lo`/`hi` range over the *finite* values only; `finite` records
/// whether every value was finite. The quantizer leaves a tensor with a
/// NaN or ±Inf alone, so it only reads `lo`/`hi` of an all-finite scan;
/// the i8 requantizer calibrates its grid on the finite values.
///
/// Fold order is immaterial to the quantized output bits: `finite` is an
/// AND; `f32::min`/`f32::max` over non-NaN values are associative and
/// commutative on every pair except the `-0.0`/`+0.0` tie, whose
/// representative may depend on fold order but can never change the
/// downstream result — `hi - lo` produces identical bits for either zero
/// (`x - (-0.0)` ≡ `x - (+0.0)` for all finite `x`), and an all-zero
/// tensor fails the `range > 0` gate with either sign. Merging per-lane
/// or per-chunk partials in any deterministic order is therefore
/// bit-identical to the sequential sweep.
#[derive(Debug, Clone, Copy)]
pub struct RangeScan {
    pub(crate) lo: f32,
    pub(crate) hi: f32,
    pub(crate) finite: bool,
}

impl RangeScan {
    /// The fold identity: empty range, finite.
    pub fn new() -> Self {
        RangeScan {
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
            finite: true,
        }
    }

    /// Combines two partial scans (see the type docs for why any combine
    /// order yields identical quantized bits).
    pub fn merge(&mut self, other: RangeScan) {
        self.finite &= other.finite;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// Scan of a slice on the vectorized kernel — exactly the sweep
    /// [`fake_quant_into`] performs internally.
    pub fn scan(data: &[f32]) -> Self {
        dispatch(SimdLevel::detect(), kernel::Scan(data))
    }

    /// Maps every element of `data` through `f` in place and returns the
    /// scan of the results, in one pass (e.g. an activation clamp folded
    /// into the quantizer's range scan).
    pub fn map_scan(data: &mut [f32], f: impl Fn(f32) -> f32) -> Self {
        dispatch(SimdLevel::detect(), kernel::MapScan(data, f))
    }

    /// Smallest finite value scanned (`+∞` when there was none).
    pub fn lo(&self) -> f32 {
        self.lo
    }

    /// Largest finite value scanned (`−∞` when there was none).
    pub fn hi(&self) -> f32 {
        self.hi
    }

    /// Whether every value scanned was finite.
    pub fn all_finite(&self) -> bool {
        self.finite
    }
}

/// A conv tile store's range of its outputs is their scan.
impl From<cq_tensor::OutRange> for RangeScan {
    fn from(r: cq_tensor::OutRange) -> Self {
        RangeScan {
            lo: r.lo,
            hi: r.hi,
            finite: r.finite,
        }
    }
}

impl Default for RangeScan {
    fn default() -> Self {
        RangeScan::new()
    }
}

/// In-place variant of [`fake_quant`] operating on a raw slice; used on
/// hot paths to avoid an allocation.
pub fn fake_quant_into(data: &mut [f32], precision: Precision, mode: QuantMode) {
    if matches!(precision, Precision::Fp) || data.is_empty() {
        return;
    }
    let scan = RangeScan::scan(data);
    fake_quant_scanned(data, scan, precision, mode);
}

/// Applies the grid projection of [`fake_quant_into`] given a
/// precomputed [`RangeScan`] of exactly the current contents of `data`.
/// Bit-identical to [`fake_quant_into`] — same warnings, counters,
/// histogram and grid — without the quantizer's whole-buffer re-read;
/// the caller is responsible for `scan` matching `data`.
pub fn fake_quant_scanned(
    data: &mut [f32],
    scan: RangeScan,
    precision: Precision,
    mode: QuantMode,
) {
    let elems = data.len();
    fake_quant_scanned_at(SimdLevel::detect(), data, elems, scan, precision, mode);
}

/// [`fake_quant_scanned`] for the storage of a lane tensor
/// (`cq_tensor::lanes`) that holds `elems` real elements: `scan` covers
/// those only, every stored element is projected (a pad lane's value is
/// never read), and the counters and warnings count the `elems` real
/// ones.
pub fn fake_quant_scanned_lanes(
    data: &mut [f32],
    elems: usize,
    scan: RangeScan,
    precision: Precision,
    mode: QuantMode,
) {
    fake_quant_scanned_at(SimdLevel::detect(), data, elems, scan, precision, mode);
}

/// [`fake_quant_scanned`] of `elems` real elements with the projection
/// run at `level`.
pub(crate) fn fake_quant_scanned_at(
    level: SimdLevel,
    data: &mut [f32],
    elems: usize,
    scan: RangeScan,
    precision: Precision,
    mode: QuantMode,
) {
    if data.is_empty() {
        return;
    }
    let Some(step) = fake_quant_step(scan, elems, precision) else {
        return;
    };
    // Round-half-away-from-zero (or floor): the pinned grid-projection
    // rule shared with the i8 requantizer (see crate::intmath).
    dispatch(
        level,
        kernel::Project {
            data: &mut *data,
            step,
            mode,
        },
    );
    check_projected(data, scan, step);
}

/// Under the `sanitize` feature (and an enabled sanitizer), records a
/// violation if a value of `data`, projected with `step` from values of
/// range `scan`, is not finite or lies more than one step outside that
/// range: the grid is anchored at 0, so projected values may
/// legitimately land up to one step outside `[lo, hi]`, and anything
/// further is a quantizer bug. [`fake_quant_scanned`] runs it after
/// every projection; a caller that projects in a pass of its own (see
/// [`fake_quant_step`]) runs it on what it projected. A no-op without
/// the feature.
pub fn check_projected(data: &[f32], scan: RangeScan, step: f32) {
    #[cfg(feature = "sanitize")]
    if cq_tensor::sanitize::is_enabled() {
        let RangeScan { lo, hi, .. } = scan;
        if let Some(v) =
            cq_tensor::sanitize::scan_quant("fake_quant", &[data.len()], data, lo, hi, step)
        {
            cq_tensor::sanitize::record(v);
        }
    }
    #[cfg(not(feature = "sanitize"))]
    let _ = (data, scan, step);
}

/// The grid step [`fake_quant_scanned`] projects `elems` values of range
/// `scan` with — `(hi − lo) / (2^q − 1)` — after the same warnings,
/// clip-range histogram and element counter; `None` where it leaves them
/// unchanged (`Precision::Fp`, no values, a NaN or ±Inf among them, a
/// constant tensor, an invalid bit-width). For a caller that projects in
/// a pass of its own, e.g. one that also writes the values' int8 codes.
pub fn fake_quant_step(scan: RangeScan, elems: usize, precision: Precision) -> Option<f32> {
    let q = match precision {
        Precision::Fp => return None,
        Precision::Bits(q) => q,
    };
    if elems == 0 {
        return None;
    }
    let RangeScan { lo, hi, finite } = scan;
    if !finite {
        cq_obs::warn_with(|| {
            format!("fake_quant: tensor of {elems} elements contains NaN/Inf; left unquantized")
        });
        return None;
    }
    let range = hi - lo;
    if range <= 0.0 {
        return None; // constant tensor: nothing to quantize
    }
    // Guarded 2^q − 1: a Precision::Bits(q) constructed outside 2..=16
    // (bypassing the parse-time validation in Precision::bits) must not
    // silently wrap the shift — warn and leave the tensor unquantized.
    let steps = match crate::intmath::grid_steps(q) {
        Ok(s) => s,
        Err(e) => {
            cq_obs::warn_with(|| format!("fake_quant: {e}; left unquantized"));
            return None;
        }
    };
    // Clip-range and volume observability: the dynamic range drives the
    // quantization step (Eq. 10), so its distribution over a run is the
    // first thing to inspect when quantization noise looks wrong.
    cq_obs::histogram(cq_obs::names::QUANT_CLIP_RANGE, range as f64);
    FAKE_QUANT_ELEMS.add(elems as u64);
    Some(range / steps as f32)
}

/// Mean squared quantization error of `t` at the given precision — the
/// magnitude of the "augmentation noise" Contrastive Quant injects.
pub fn quant_mse(t: &Tensor, precision: Precision, mode: QuantMode) -> f32 {
    let q = fake_quant(t, precision, mode);
    t.as_slice()
        .iter()
        .zip(q.as_slice())
        .map(|(&a, &b)| (a - b) * (a - b))
        // cq-allow(det-float-accum): element-order sum over one tensor's slice
        .sum::<f32>()
        / t.len().max(1) as f32
}

/// Signal-to-quantization-noise ratio in dB. Returns `f32::INFINITY` when
/// the error is zero (e.g. FP precision).
pub fn quant_snr_db(t: &Tensor, precision: Precision, mode: QuantMode) -> f32 {
    let noise = quant_mse(t, precision, mode);
    if noise == 0.0 {
        return f32::INFINITY;
    }
    let signal = t.sq_norm() / t.len().max(1) as f32;
    10.0 * (signal / noise).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fp_is_identity() {
        let t = Tensor::from_slice(&[0.1, -0.7, 3.2]);
        assert_eq!(fake_quant(&t, Precision::Fp, QuantMode::Round), t);
    }

    #[test]
    fn constant_tensor_unchanged() {
        let t = Tensor::full(&[8], 2.5);
        assert_eq!(fake_quant(&t, Precision::Bits(4), QuantMode::Round), t);
    }

    #[test]
    fn values_land_on_grid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = Tensor::randn(&[256], 0.0, 1.0, &mut rng);
        let q = fake_quant(&t, Precision::Bits(4), QuantMode::Round);
        let lo = t.min();
        let hi = t.max();
        let step = (hi - lo) / 15.0;
        for &v in q.as_slice() {
            let k = v / step;
            assert!(
                (k - k.round()).abs() < 1e-3,
                "{v} not on grid (step {step})"
            );
        }
    }

    #[test]
    fn scanned_path_is_bitwise_identical_to_into() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for mode in [QuantMode::Round, QuantMode::Floor] {
            for bits in [2u8, 5, 8, 16] {
                let t = Tensor::randn(&[1023], 0.3, 1.7, &mut rng);
                let mut a = t.as_slice().to_vec();
                let mut b = a.clone();
                fake_quant_into(&mut a, Precision::Bits(bits), mode);
                let scan = RangeScan::scan(&b);
                fake_quant_scanned(&mut b, scan, Precision::Bits(bits), mode);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bits={bits} mode={mode:?}");
                }
            }
        }
    }

    #[test]
    fn chunked_scan_merge_matches_sequential_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let t = Tensor::randn(&[997], -0.4, 2.1, &mut rng);
        let mut data = t.as_slice().to_vec();
        // Adversarial extras: both zero signs and exact duplicates.
        data.extend_from_slice(&[0.0, -0.0, 2.5, 2.5, -3.0, -3.0]);
        let mut seq = data.clone();
        let mut chunked = data.clone();
        // Merge odd-sized chunk partials in reverse order — the least
        // sequential fold imaginable must still give identical bits.
        let mut scan = RangeScan::new();
        for chunk in data.chunks(123).rev() {
            scan.merge(RangeScan::scan(chunk));
        }
        fake_quant_into(&mut seq, Precision::Bits(7), QuantMode::Round);
        fake_quant_scanned(&mut chunked, scan, Precision::Bits(7), QuantMode::Round);
        for (x, y) in seq.iter().zip(&chunked) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scanned_path_leaves_nonfinite_input_alone() {
        let mut data = vec![1.0, f32::NAN, 3.0];
        let orig = data.clone();
        let scan = RangeScan::scan(&data);
        fake_quant_scanned(&mut data, scan, Precision::Bits(8), QuantMode::Round);
        assert_eq!(data[0], orig[0]);
        assert!(data[1].is_nan());
        assert_eq!(data[2], orig[2]);
    }

    #[test]
    fn round_error_bounded_by_half_step() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = Tensor::randn(&[512], 0.0, 2.0, &mut rng);
        let q = fake_quant(&t, Precision::Bits(6), QuantMode::Round);
        let step = (t.max() - t.min()) / 63.0;
        for (&a, &b) in t.as_slice().iter().zip(q.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn floor_error_bounded_by_step_and_biased_down() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = Tensor::randn(&[512], 0.0, 2.0, &mut rng);
        let q = fake_quant(&t, Precision::Bits(6), QuantMode::Floor);
        let step = (t.max() - t.min()) / 63.0;
        for (&a, &b) in t.as_slice().iter().zip(q.as_slice()) {
            let e = a - b;
            assert!(
                e >= -1e-6 && e <= step + 1e-6,
                "floor error {e} out of [0, step]"
            );
        }
    }

    #[test]
    fn more_bits_less_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let t = Tensor::randn(&[1024], 0.0, 1.0, &mut rng);
        let e4 = quant_mse(&t, Precision::Bits(4), QuantMode::Round);
        let e8 = quant_mse(&t, Precision::Bits(8), QuantMode::Round);
        let e16 = quant_mse(&t, Precision::Bits(16), QuantMode::Round);
        assert!(e4 > e8 && e8 > e16, "{e4} {e8} {e16}");
    }

    #[test]
    fn snr_increases_with_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t = Tensor::randn(&[1024], 0.0, 1.0, &mut rng);
        let s4 = quant_snr_db(&t, Precision::Bits(4), QuantMode::Round);
        let s8 = quant_snr_db(&t, Precision::Bits(8), QuantMode::Round);
        assert!(s8 > s4 + 10.0, "expect ~6dB/bit: {s4} -> {s8}");
        assert_eq!(
            quant_snr_db(&t, Precision::Fp, QuantMode::Round),
            f32::INFINITY
        );
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let t = Tensor::randn(&[128], 0.0, 1.0, &mut rng);
        let q1 = fake_quant(&t, Precision::Bits(5), QuantMode::Round);
        // Re-quantizing the already-quantized tensor at the same precision
        // keeps values on (a refinement of) the same grid: every value must
        // move by strictly less than half the original step.
        let q2 = fake_quant(&q1, Precision::Bits(5), QuantMode::Round);
        let step = (t.max() - t.min()) / 31.0;
        for (&a, &b) in q1.as_slice().iter().zip(q2.as_slice()) {
            assert!((a - b).abs() < step / 2.0);
        }
    }

    #[test]
    fn config_constructors() {
        let fp = QuantConfig::fp();
        assert!(!fp.is_quantized());
        let u = QuantConfig::uniform(Precision::Bits(8));
        assert!(u.is_quantized());
        assert_eq!(u.weight, u.act);
        assert_eq!(u.with_mode(QuantMode::Floor).mode, QuantMode::Floor);
        assert_eq!(QuantConfig::default(), fp);
    }

    #[test]
    fn empty_slice_is_noop() {
        let mut v: Vec<f32> = vec![];
        fake_quant_into(&mut v, Precision::Bits(4), QuantMode::Round);
        assert!(v.is_empty());
    }

    #[test]
    fn nonfinite_input_left_alone() {
        // Deliberately off-grid finite values: with lo=0.3, hi=0.7 the
        // 4-bit grid step is (0.7-0.3)/15, and neither 0.3 nor 0.7 is an
        // exact multiple of it, so any quantization would visibly move
        // them. (The old test used 1.0/2.0, which happened to round-trip
        // the grid exactly and masked a partial-quantization bug: min/max
        // skip NaN, so the finite entries were being snapped.)
        let cases: [&[f32]; 3] = [
            &[f32::NAN, 0.3, 0.7],
            &[0.3, f32::INFINITY, 0.7],
            &[0.3, 0.7, f32::NEG_INFINITY, f32::NAN],
        ];
        for case in cases {
            let mut v = case.to_vec();
            fake_quant_into(&mut v, Precision::Bits(4), QuantMode::Round);
            for (got, want) in v.iter().zip(case) {
                if want.is_nan() {
                    assert!(got.is_nan());
                } else {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "finite value {want} was modified in {case:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fake_quant_obeys_shared_rounding_contract() {
        // Run the fake-quant grid projection through the shared contract:
        // anchor the tensor range to exactly 255·32 at 8 bits so the step is
        // exactly 32.0 (a power of two, so scaling the probe in and out is
        // lossless), then the recovered code equals round(x).
        crate::intmath::assert_round_half_away(|x| {
            // Anchors at ±127.5·32 cover every contract case (|x| ≤ 127.5)
            // without shifting lo/hi.
            let mut v = vec![-4080.0, 4080.0, x * 32.0];
            fake_quant_into(&mut v, Precision::Bits(8), QuantMode::Round);
            v[2] / 32.0
        });
    }

    #[test]
    fn out_of_range_bits_left_unquantized_with_warning() {
        // Bits(q) outside 2..=16 built directly (not via Precision::bits)
        // must not wrap `1u32 << q` — the tensor stays untouched.
        let sink = std::sync::Arc::new(cq_obs::sink::MemorySink::new());
        cq_obs::install(sink.clone());
        for q in [1u8, 31, 32, 64] {
            let orig = [0.3f32, -0.9, 0.7];
            let mut v = orig.to_vec();
            fake_quant_into(&mut v, Precision::Bits(q), QuantMode::Round);
            assert_eq!(v, orig, "q={q} must be a guarded no-op");
        }
        cq_obs::uninstall();
        let warned = sink.snapshot().iter().any(|e| {
            matches!(e, cq_obs::Event::Warning { message }
                if message.contains("outside supported range 2..=16"))
        });
        assert!(warned, "expected an out-of-range bit-width warning");
    }

    #[test]
    fn nonfinite_input_emits_warning() {
        let sink = std::sync::Arc::new(cq_obs::sink::MemorySink::new());
        cq_obs::install(sink.clone());
        let mut v = vec![f32::NAN, 0.3, 0.7];
        fake_quant_into(&mut v, Precision::Bits(4), QuantMode::Round);
        cq_obs::uninstall();
        let warned = sink.snapshot().iter().any(|e| {
            matches!(e, cq_obs::Event::Warning { message } if message.contains("left unquantized"))
        });
        assert!(warned, "expected a fake_quant NaN/Inf warning");
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn check_projected_flags_values_past_one_step_or_not_finite() {
        use cq_tensor::sanitize::{take_violations, ScopeGuard};
        let _guard = ScopeGuard::new();
        let scan = RangeScan::scan(&[0.0, 1.0]);
        check_projected(&[-0.25, 0.5, 1.25], scan, 0.25);
        assert!(take_violations().is_empty());
        for bad in [
            [0.0, 1.3],
            [-0.3, 0.0],
            [f32::NAN, 0.5],
            [0.5, f32::INFINITY],
        ] {
            check_projected(&bad, scan, 0.25);
            assert_eq!(take_violations().len(), 1, "{bad:?}");
        }
    }
}
