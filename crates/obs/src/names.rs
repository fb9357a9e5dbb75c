//! Canonical metric/histogram name constants — the telemetry schema.
//!
//! Every `cq_obs::metric`/`cq_obs::histogram` call site in library code
//! must reference one of these constants instead of an ad-hoc string
//! literal (enforced by the cq-check `obs-names` lint), so a typo'd name
//! can never silently fork a metric series, and offline tooling
//! (`cq-trace`, the health detectors) can match on one spelling.
//!
//! Span names are not centralized: they are structural (layer kinds,
//! phase labels) rather than schema, and several are computed
//! (`layer_kind()`).

/// Per-step training loss (one observation per optimizer step; exploded
/// steps report their non-finite/oversized value too, so the health
/// sentinels can see the divergence).
pub const TRAIN_LOSS: &str = "train.loss";

/// Per-step global gradient norm (also reported for exploded steps).
pub const TRAIN_GRAD_NORM: &str = "train.grad_norm";

/// Per-step learning rate after schedule.
pub const TRAIN_LR: &str = "train.lr";

/// End-of-epoch throughput in images per second.
pub const TRAIN_IMAGES_PER_SEC: &str = "train.images_per_sec";

/// Per-epoch count of non-finite entries excluded from the epoch
/// loss/grad-norm means (skipped/exploded steps).
pub const TRAIN_NONFINITE_STEPS: &str = "train.nonfinite_steps";

/// Sampled quantization bit-width (one observation per draw).
pub const QUANT_BITS: &str = "quant.bits";

/// Dynamic range (`hi - lo`) seen by the fake-quantizer.
pub const QUANT_CLIP_RANGE: &str = "quant.clip_range";

/// Checkpoints written by the training engine (counter). Everything under
/// the `ckpt.` prefix is run-lifecycle telemetry, which `cq-trace diff`
/// reports but does not gate (a resumed run legitimately loads one
/// checkpoint more than an uninterrupted one).
pub const CKPT_SAVED: &str = "ckpt.saved";

/// Checkpoints restored by the training engine (counter). See
/// [`CKPT_SAVED`] for the `ckpt.` gating exemption.
pub const CKPT_LOADED: &str = "ckpt.loaded";

/// Per-step worker-pool utilization: pool busy time during the step
/// divided by `step wall time x pool width`, in (0, 1] when the pool ran
/// (0 when the step never dispatched). Timing-dependent by nature, so
/// `cq-trace diff` reports but never gates this series.
pub const POOL_UTILIZATION: &str = "pool.utilization";

/// Per-step chunk-claim imbalance: mean over the step's pool jobs of
/// `max claims by one worker / ideal claims per worker` (1.0 = perfectly
/// balanced). Claim order is scheduling-dependent, so `cq-trace diff`
/// reports but never gates this series.
pub const POOL_CHUNK_IMBALANCE: &str = "pool.chunk_imbalance";

/// Per-phase peak resident set size in kilobytes (`VmHWM` sampled at the
/// phase boundary). Environment-dependent: report-only in diffs via the
/// `mem.` prefix.
pub const MEM_PEAK_RSS_KB: &str = "mem.peak_rss_kb";

/// Per-phase allocation calls (delta of the opt-in counting allocator —
/// see [`crate::alloc`]); 0 when no counting allocator is installed.
pub const MEM_ALLOC_COUNT: &str = "mem.alloc_count";

/// Per-phase minor page faults (delta of `minflt` from
/// `/proc/self/stat` — see [`crate::alloc::minor_faults`]): pages the
/// kernel mapped on first touch. A steady-state training step that
/// reuses its buffers takes almost none, so a rise shows allocation
/// churn coming back. Environment-dependent: report-only in diffs via
/// the `mem.` prefix.
pub const MEM_MINOR_FAULTS: &str = "mem.minor_faults";

/// Per-step bytes of intermediate-tensor memory traffic elided by the
/// graph executor's elementwise fusion pass (delta of the cumulative
/// `fusion.pass_elided_bytes` counter across the step). A function of
/// the recorded chains alone, so `cq-trace diff` gates it like any other
/// workload series.
pub const FUSION_PASS_ELIDED_BYTES: &str = "fusion.pass_elided_bytes";

/// Per-epoch collapse probe: mean per-dimension standard deviation of the
/// L2-normalized projector embeddings, scaled by `sqrt(d)` so a healthy
/// (isotropic) representation sits near 1.0 and a collapsed one at 0.
pub const EMBED_FEATURE_STD: &str = "embed.feature_std";

/// Per-epoch collapse probe: mean cosine similarity between the
/// projections of the two views of the same image (positive pairs).
pub const EMBED_POS_COSINE: &str = "embed.pos_cosine";

/// Per-epoch alignment statistic (Wang & Isola): mean squared distance
/// between normalized positive-pair projections; 0 = perfectly aligned.
pub const EMBED_ALIGNMENT: &str = "embed.alignment";

/// Per-epoch uniformity statistic (Wang & Isola):
/// `log E exp(-2 ||z_i - z_j||^2)` over distinct normalized projections;
/// 0 means all embeddings coincide (collapse), healthy values are
/// clearly negative.
pub const EMBED_UNIFORMITY: &str = "embed.uniformity";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_dotted() {
        let all = [
            super::TRAIN_LOSS,
            super::TRAIN_GRAD_NORM,
            super::TRAIN_LR,
            super::TRAIN_IMAGES_PER_SEC,
            super::TRAIN_NONFINITE_STEPS,
            super::QUANT_BITS,
            super::QUANT_CLIP_RANGE,
            super::CKPT_SAVED,
            super::CKPT_LOADED,
            super::POOL_UTILIZATION,
            super::POOL_CHUNK_IMBALANCE,
            super::MEM_PEAK_RSS_KB,
            super::MEM_ALLOC_COUNT,
            super::MEM_MINOR_FAULTS,
            super::FUSION_PASS_ELIDED_BYTES,
            super::EMBED_FEATURE_STD,
            super::EMBED_POS_COSINE,
            super::EMBED_ALIGNMENT,
            super::EMBED_UNIFORMITY,
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate telemetry name");
        assert!(all.iter().all(|n| n.contains('.')), "names are namespaced");
    }
}
