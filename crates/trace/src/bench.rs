//! Parsing, validation and regression-diffing of `cq-bench kernels`
//! artifacts (`BENCH_<pr>.json`, schemas `cq-bench-kernels/v1`, `/v2`
//! and `/v3`).
//!
//! v2 extends v1 with a measured machine roofline (`peak_gflops`,
//! `stream_gbs`), per-point arithmetic intensity and %-of-roofline, and
//! a machine fingerprint that also carries the effective thread count
//! and SIMD dispatch level. Both schema versions parse; a v1-vs-v2 diff
//! compares throughput as usual but the fingerprints differ in format,
//! so the hard gate disarms exactly as it does across real hardware
//! changes.
//!
//! v3 extends v2 with the integer inference path: i8 GEMM grid points
//! (`matmul_i8*`, integer GOP/s under the shared `gflops` key) and a
//! required `int8_encoders` section — per-architecture imgs/sec of the
//! `cq-infer` i8 program vs the fake-quant f32 forward. The machine
//! fingerprint format is unchanged from v2, so v2-vs-v3 diffs on the
//! same machine still hard-gate the shared kernel grid; encoder points
//! diff like kernels when both sides carry them.
//!
//! Since PR 10 the v3 artifact may additionally carry an *optional*
//! `ew_chains` section: the graph executor's fused elementwise-chain
//! throughput against the per-layer path, in GB/s of logical chain
//! traffic. The schema string is unchanged — older artifacts simply lack
//! the section — but when present the entries are validated and the
//! fused throughput diffs like any other grid point. Keys the parser
//! does not know are ignored, so older artifacts that still carry the
//! retired 2-step pilot throughput sections parse unchanged.
//!
//! The document is read by `cq_obs::json::parse`. On top of it:
//!
//! - [`parse_bench`] — parse + schema-validate into a [`BenchReport`].
//! - [`diff_bench`] — compare two reports grid-point by grid-point and
//!   flag throughput regressions beyond a noise threshold. Benchmarks
//!   from *different machines* are never hard-gated: the diff degrades to
//!   a report with a note, because GFLOP/s across CPUs is not a
//!   regression signal.

use std::collections::BTreeMap;

use cq_obs::json::{self, Value};

/// The original schema string.
pub const BENCH_SCHEMA: &str = "cq-bench-kernels/v1";

/// The roofline-aware schema string.
pub const BENCH_SCHEMA_V2: &str = "cq-bench-kernels/v2";

/// The integer-inference-aware schema string.
pub const BENCH_SCHEMA_V3: &str = "cq-bench-kernels/v3";

// ---------------------------------------------------------------------------
// Bench report schema
// ---------------------------------------------------------------------------

/// Whether a kernel grid point times an integer kernel (`matmul_i8`,
/// `matmul_i8_nt`, `conv2d_i8`). Those report GOP/s under the shared
/// `gflops` key, and the f32 mul-add roofline does not bound them.
pub fn is_integer_kernel(kernel: &str) -> bool {
    kernel.starts_with("matmul_i8") || kernel == "conv2d_i8"
}

/// One measured kernel grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Kernel name (`matmul`, `matmul_nt`, `matmul_tn`, the batch-128
    /// dense conv forward `conv2d_fwd` and backward (both gradients)
    /// `conv2d_bwd`, at 3×3 and 1×1 shapes, the batch-128 depthwise conv
    /// forward `dw_fwd` and backward (both gradients) `dw_bwd` at
    /// MobileNetV2's depthwise shapes, keyed `C`×`N·P`×`T`, and the
    /// integer `matmul_i8`, `matmul_i8_nt`, `conv2d_i8`). Older artifacts
    /// also carry the retired single-image forward `conv2d`.
    pub kernel: String,
    /// Output rows of the (lowered) product.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Contraction length.
    pub k: usize,
    /// Blocked-kernel throughput.
    pub gflops: f64,
    /// Pre-rewrite scalar baseline throughput.
    pub ref_gflops: f64,
    /// Percent of the roofline-attainable throughput this point reaches
    /// (v2 artifacts; 0.0 in v1 artifacts, which carry no roofline).
    pub roofline_pct: f64,
}

impl KernelPoint {
    /// Identity of this grid point for cross-report matching.
    pub fn key(&self) -> (String, usize, usize, usize) {
        (self.kernel.clone(), self.m, self.n, self.k)
    }

    /// Throughput unit: integer kernels report GOP/s under the shared
    /// `gflops` key.
    pub fn unit(&self) -> &'static str {
        if is_integer_kernel(&self.kernel) {
            "GOP/s"
        } else {
            "GFLOP/s"
        }
    }
}

/// One int8-vs-f32 encoder throughput measurement (v3 artifacts).
#[derive(Debug, Clone, PartialEq)]
pub struct Int8EncoderPoint {
    /// Architecture name (`ResNet18`, `MobileNetV2`, ...).
    pub arch: String,
    /// Batch size of the measurement.
    pub n: usize,
    /// Fake-quant f32 eval forward throughput, imgs/sec.
    pub f32_imgs_per_sec: f64,
    /// `cq-infer` i8 program throughput, imgs/sec.
    pub int8_imgs_per_sec: f64,
}

/// One elementwise-chain throughput measurement (optional `ew_chains`
/// section, PR 10+ artifacts): the fused graph executor against the
/// per-layer path, which runs each layer's own `forward` and
/// materializes every intermediate. Throughput counts the chain's
/// logical traffic — read input, read each residual operand, write
/// output — so the ratio isolates the passes fusion elides.
#[derive(Debug, Clone, PartialEq)]
pub struct EwChainPoint {
    /// Chain label (`bn_relu_q8`, `bn_add3_relu_q8`, ...).
    pub chain: String,
    /// Elements per tensor in the chain.
    pub elems: usize,
    /// Recorded elementwise groups (= per-layer pass count).
    pub groups: usize,
    /// Fused throughput, GB/s of logical chain traffic.
    pub fused_gbs: f64,
    /// Per-layer throughput over the same traffic.
    pub unfused_gbs: f64,
}

impl EwChainPoint {
    /// Fused-over-per-layer speedup.
    pub fn speedup(&self) -> f64 {
        self.fused_gbs / self.unfused_gbs
    }
}

/// A parsed, schema-valid `BENCH_<pr>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// PR number the artifact belongs to.
    pub pr: u64,
    /// `quick` or `paper`.
    pub scale: String,
    /// `os/arch/cpu/threads` fingerprint, used to refuse cross-machine
    /// hard gating.
    pub machine: String,
    /// All measured grid points.
    pub kernels: Vec<KernelPoint>,
    /// Measured machine ceilings `(peak_gflops, stream_gbs)`; `None` in
    /// v1 artifacts.
    pub roofline: Option<(f64, f64)>,
    /// Int8-vs-f32 encoder throughput points; empty before v3.
    pub int8_encoders: Vec<Int8EncoderPoint>,
    /// Fused-vs-per-layer elementwise-chain points; empty before PR 10.
    pub ew_chains: Vec<EwChainPoint>,
}

/// Parses and schema-validates a bench artifact (v1, v2 or v3).
pub fn parse_bench(text: &str) -> Result<BenchReport, String> {
    BenchReport::from_json(&json::parse(text).map_err(|e| e.to_string())?)
}

/// Reads each entry of the array `root[key]` through `read`, naming the
/// failing entry (`key[i]`); `None` when there is no such array.
fn section<T>(
    root: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let Some(entries) = root.get(key).and_then(Value::as_arr) else {
        return Ok(None);
    };
    let points = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| read(entry).map_err(|e| format!("{key}[{i}]: {e}")));
    points.collect::<Result<_, _>>().map(Some)
}

/// A [`section`] that must be present and non-empty.
fn required_section<T>(
    root: &Value,
    key: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match section(root, key, read)? {
        None => Err(format!("root: missing `{key}` array")),
        Some(points) if points.is_empty() => Err(format!("`{key}` array is empty")),
        Some(points) => Ok(points),
    }
}

fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

impl BenchReport {
    /// Schema-validates a parsed bench artifact (v1, v2 or v3).
    pub fn from_json(root: &Value) -> Result<BenchReport, String> {
        let at = |ctx: &'static str| move |e: String| format!("{ctx}: {e}");
        let schema = root.str_field("schema").map_err(at("root"))?;
        // v3 keeps every v2 rule (roofline, fingerprint format, per-point
        // ai/roofline_pct) and adds a required `int8_encoders` section.
        let v3 = schema == BENCH_SCHEMA_V3;
        let v2 = match schema {
            BENCH_SCHEMA => false,
            BENCH_SCHEMA_V2 | BENCH_SCHEMA_V3 => true,
            _ => {
                return Err(format!(
                    "unsupported schema `{schema}` (expected `{BENCH_SCHEMA}`, `{BENCH_SCHEMA_V2}` or `{BENCH_SCHEMA_V3}`)"
                ))
            }
        };
        let pr = root.u64_field("pr").map_err(at("root"))?;
        let scale = root.str_field("scale").map_err(at("root"))?.to_string();
        let mach = root.get("machine").ok_or("root: missing `machine`")?;
        // v2 fingerprints the *effective* execution environment: the thread
        // count the pool actually uses (post CQ_THREADS) and the SIMD
        // dispatch level, both of which change what GFLOP/s means.
        let text = |key| mach.str_field(key).map_err(at("machine"));
        let count = |key| mach.u64_field(key).map_err(at("machine"));
        let (os, arch, cpu) = (text("os")?, text("arch")?, text("cpu")?);
        let machine = if v2 {
            let threads = count("threads_effective")?;
            format!("{os}/{arch}/{cpu}/{threads}t/{}", text("simd")?)
        } else {
            format!("{os}/{arch}/{cpu}/{}t", count("threads")?)
        };
        let roofline = if v2 {
            let r = root.get("roofline").ok_or("root: missing `roofline`")?;
            let peak = r.f64_field("peak_gflops").map_err(at("roofline"))?;
            let stream = r.f64_field("stream_gbs").map_err(at("roofline"))?;
            if !(positive(peak) && positive(stream)) {
                return Err("roofline: non-positive or non-finite ceiling".into());
            }
            Some((peak, stream))
        } else {
            None
        };
        let kernels = required_section(root, "kernels", |e| {
            let point = KernelPoint {
                kernel: e.str_field("kernel")?.to_string(),
                m: e.u64_field("m")? as usize,
                n: e.u64_field("n")? as usize,
                k: e.u64_field("k")? as usize,
                gflops: e.f64_field("gflops")?,
                ref_gflops: e.f64_field("ref_gflops")?,
                roofline_pct: if v2 {
                    e.f64_field("roofline_pct")?
                } else {
                    0.0
                },
            };
            if point.gflops <= 0.0 || point.ref_gflops <= 0.0 {
                return Err("non-positive throughput".into());
            }
            if v2 && !positive(e.f64_field("ai")?) {
                return Err("non-positive arithmetic intensity".into());
            }
            if v2 && !positive(point.roofline_pct) {
                return Err("non-positive roofline_pct".into());
            }
            Ok(point)
        })?;
        let int8_encoders = if v3 {
            required_section(root, "int8_encoders", |e| {
                let point = Int8EncoderPoint {
                    arch: e.str_field("arch")?.to_string(),
                    n: e.u64_field("n")? as usize,
                    f32_imgs_per_sec: e.f64_field("f32_imgs_per_sec")?,
                    int8_imgs_per_sec: e.f64_field("int8_imgs_per_sec")?,
                };
                if !(positive(point.f32_imgs_per_sec) && positive(point.int8_imgs_per_sec)) {
                    return Err("non-positive throughput".into());
                }
                Ok(point)
            })?
        } else {
            Vec::new()
        };
        // Optional fusion section (PR 10+). Absent in older artifacts; when
        // present every entry must be well-formed and positive.
        let ew_chains = section(root, "ew_chains", |e| {
            let point = EwChainPoint {
                chain: e.str_field("chain")?.to_string(),
                elems: e.u64_field("elems")? as usize,
                groups: e.u64_field("groups")? as usize,
                fused_gbs: e.f64_field("fused_gbs")?,
                unfused_gbs: e.f64_field("unfused_gbs")?,
            };
            if point.elems == 0 || point.groups == 0 {
                return Err("zero elems or groups".into());
            }
            if !(positive(point.fused_gbs) && positive(point.unfused_gbs)) {
                return Err("non-positive throughput".into());
            }
            Ok(point)
        })?
        .unwrap_or_default();
        Ok(BenchReport {
            pr,
            scale,
            machine,
            kernels,
            roofline,
            int8_encoders,
            ew_chains,
        })
    }
}

// ---------------------------------------------------------------------------
// Diff gate
// ---------------------------------------------------------------------------

/// Outcome of [`diff_bench`].
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Human-readable table.
    pub report: String,
    /// Grid points slower than the threshold allows (empty on pass).
    pub regressions: Vec<String>,
    /// True when old/new ran on different machines (gate disarmed).
    pub machine_mismatch: bool,
}

/// One gated throughput reading of a bench point.
struct Reading {
    label: String,
    value: f64,
    unit: &'static str,
}

/// Diffs one section of two reports point by point, matching points by
/// key: a point regresses when its new value is more than
/// `fail_over_pct` percent below the old one, unless the machines differ.
/// Points on only one side are reported but never fail.
fn diff_section<K: Ord>(
    d: &mut BenchDiff,
    fail_over_pct: f64,
    old: Vec<(K, Reading)>,
    new: Vec<(K, Reading)>,
) {
    let old_by_key: BTreeMap<&K, &Reading> = old.iter().map(|(k, r)| (k, r)).collect();
    for (key, r) in &new {
        let (label, v, unit) = (&r.label, r.value, r.unit);
        match old_by_key.get(key) {
            None => d.report.push_str(&format!(
                "  new   {label}: {v:.2} {unit} (no old measurement)\n"
            )),
            Some(o) => {
                let delta_pct = (v - o.value) / o.value * 100.0;
                let verdict = if delta_pct < -fail_over_pct && !d.machine_mismatch {
                    d.regressions.push(format!("{label}: {delta_pct:+.1}%"));
                    "REGRESSED"
                } else {
                    "ok"
                };
                d.report.push_str(&format!(
                    "  {verdict:>5} {label}: {:.2} -> {v:.2} {unit} ({delta_pct:+.1}%)\n",
                    o.value
                ));
            }
        }
    }
    for (key, o) in &old {
        if !new.iter().any(|(k, _)| k == key) {
            d.report.push_str(&format!(
                "  gone  {} (was {:.2} {})\n",
                o.label, o.value, o.unit
            ));
        }
    }
}

/// Compares two bench reports. A grid point, int8 encoder or
/// elementwise chain regresses when its new throughput (blocked kernel
/// GFLOP/s, int8 imgs/sec, fused GB/s) is more than `fail_over_pct`
/// percent below the old one; points present on only one side are
/// reported but never fail. When the machine fingerprints differ the
/// diff never fails (throughput across CPUs is not comparable) — it
/// reports with a note instead.
pub fn diff_bench(old: &BenchReport, new: &BenchReport, fail_over_pct: f64) -> BenchDiff {
    let mut d = BenchDiff {
        report: format!(
            "bench-diff: PR {} -> PR {} ({} threshold {:.0}%)\n",
            old.pr, new.pr, new.scale, fail_over_pct
        ),
        regressions: Vec::new(),
        machine_mismatch: old.machine != new.machine,
    };
    if d.machine_mismatch {
        d.report.push_str(&format!(
            "note: different machines (old `{}`, new `{}`): reporting only, gate disarmed\n",
            old.machine, new.machine
        ));
    }
    if let Some((peak, stream)) = new.roofline {
        d.report.push_str(&format!(
            "roofline (new machine): {peak:.1} GFLOP/s mul-add peak, {stream:.1} GB/s stream\n"
        ));
    }
    let kernels = |r: &BenchReport| -> Vec<_> {
        r.kernels
            .iter()
            .map(|p| {
                let mut label = format!("{} {}x{}x{}", p.kernel, p.m, p.n, p.k);
                if p.roofline_pct > 0.0 {
                    label.push_str(&format!(" [{:.0}% roofline]", p.roofline_pct));
                }
                let (value, unit) = (p.gflops, p.unit());
                (p.key(), Reading { label, value, unit })
            })
            .collect()
    };
    diff_section(&mut d, fail_over_pct, kernels(old), kernels(new));
    // The int8/f32 *ratio* is machine-relative, but the gate keys on
    // absolute imgs/sec of the int8 path — that is what the integer
    // inference work optimizes.
    let encoders = |r: &BenchReport| -> Vec<_> {
        r.int8_encoders
            .iter()
            .map(|p| {
                let ratio = p.int8_imgs_per_sec / p.f32_imgs_per_sec;
                let label = format!("int8 {} n={} ({ratio:.2}x of f32)", p.arch, p.n);
                let (value, unit) = (p.int8_imgs_per_sec, "imgs/sec");
                ((p.arch.clone(), p.n), Reading { label, value, unit })
            })
            .collect()
    };
    diff_section(&mut d, fail_over_pct, encoders(old), encoders(new));
    // Chains gate on the *fused* throughput — what the executor
    // optimizes; the per-layer side rides along as the in-artifact
    // baseline.
    let chains = |r: &BenchReport| -> Vec<_> {
        r.ew_chains
            .iter()
            .map(|p| {
                let speedup = p.speedup();
                let label = format!(
                    "ew {} ({} groups, {speedup:.2}x per-layer)",
                    p.chain, p.groups
                );
                let (value, unit) = (p.fused_gbs, "GB/s");
                (p.chain.clone(), Reading { label, value, unit })
            })
            .collect()
    };
    diff_section(&mut d, fail_over_pct, chains(old), chains(new));
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gflops_256: f64, cpu: &str) -> String {
        format!(
            r#"{{
  "schema": "cq-bench-kernels/v1",
  "pr": 7,
  "scale": "quick",
  "unix_secs": 1,
  "machine": {{"os": "linux", "arch": "x86_64", "cpu": "{cpu}", "threads": 4}},
  "kernels": [
    {{"kernel": "matmul", "m": 256, "n": 256, "k": 256, "iters": 9,
      "gflops": {gflops_256}, "ref_gflops": 15.0, "speedup": 2.4}},
    {{"kernel": "conv2d", "m": 16, "n": 1024, "k": 72, "iters": 40,
      "gflops": 20.0, "ref_gflops": 14.0, "speedup": 1.4}}
  ],
  "pilot": {{"steps": 2, "steps_per_sec": 150.0}}
}}"#
        )
    }

    #[test]
    fn committed_bench_artifacts_still_parse() {
        // BENCH_7 is v1, BENCH_8 v2, BENCH_9 and BENCH_10 v3; BENCH_10
        // also carries sections this parser no longer reads.
        for pr in 7..=10 {
            let path = format!("{}/../../BENCH_{pr}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed artifact");
            let report = parse_bench(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(report.pr, pr);
        }
    }

    #[test]
    fn parse_bench_validates_schema() {
        let report = parse_bench(&sample(36.0, "TestCpu")).expect("valid report");
        assert_eq!(report.pr, 7);
        assert_eq!(report.kernels.len(), 2);
        assert_eq!(report.machine, "linux/x86_64/TestCpu/4t");

        let wrong_schema = sample(36.0, "TestCpu").replace("cq-bench-kernels/v1", "bogus/v9");
        assert!(parse_bench(&wrong_schema).unwrap_err().contains("schema"));
        let no_kernels = sample(36.0, "TestCpu").replace("\"kernels\"", "\"kernelz\"");
        assert!(parse_bench(&no_kernels).unwrap_err().contains("kernels"));
    }

    #[test]
    fn diff_flags_regressions_beyond_threshold() {
        let old = parse_bench(&sample(36.0, "TestCpu")).unwrap();
        let ok = parse_bench(&sample(30.0, "TestCpu")).unwrap(); // -16.7%
        let bad = parse_bench(&sample(20.0, "TestCpu")).unwrap(); // -44.4%
        assert!(diff_bench(&old, &ok, 25.0).regressions.is_empty());
        let d = diff_bench(&old, &bad, 25.0);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("matmul 256x256x256"));
    }

    fn sample_v2(gflops_256: f64, simd: &str) -> String {
        format!(
            r#"{{
  "schema": "cq-bench-kernels/v2",
  "pr": 8,
  "scale": "quick",
  "unix_secs": 1,
  "machine": {{"os": "linux", "arch": "x86_64", "cpu": "TestCpu", "threads": 8,
               "threads_effective": 4, "simd": "{simd}"}},
  "roofline": {{"peak_gflops": 120.0, "stream_gbs": 18.0}},
  "kernels": [
    {{"kernel": "matmul", "m": 256, "n": 256, "k": 256, "iters": 9,
      "gflops": {gflops_256}, "ref_gflops": 15.0, "speedup": 2.4,
      "ai": 42.7, "roofline_pct": 30.0}}
  ],
  "pilot": {{"steps": 2, "steps_per_sec": 150.0}}
}}"#
        )
    }

    #[test]
    fn parse_bench_accepts_v2_with_roofline() {
        let report = parse_bench(&sample_v2(36.0, "avx2")).expect("valid v2 report");
        assert_eq!(report.pr, 8);
        // Fingerprint carries the effective thread count and SIMD level.
        assert_eq!(report.machine, "linux/x86_64/TestCpu/4t/avx2");
        assert_eq!(report.roofline, Some((120.0, 18.0)));
        assert!((report.kernels[0].roofline_pct - 30.0).abs() < 1e-9);

        // v2 requires the roofline block and sane per-point fields.
        let no_roofline = sample_v2(36.0, "avx2").replace("\"roofline\"", "\"rooflinez\"");
        assert!(parse_bench(&no_roofline).unwrap_err().contains("roofline"));
        let bad_pct =
            sample_v2(36.0, "avx2").replace("\"roofline_pct\": 30.0", "\"roofline_pct\": 0.0");
        assert!(parse_bench(&bad_pct).unwrap_err().contains("roofline_pct"));
        let bad_peak =
            sample_v2(36.0, "avx2").replace("\"peak_gflops\": 120.0", "\"peak_gflops\": -1.0");
        assert!(parse_bench(&bad_peak).unwrap_err().contains("ceiling"));
    }

    #[test]
    fn v1_vs_v2_diff_reports_but_never_gates() {
        // The fingerprint format changed between schema versions, so a
        // v1-vs-v2 diff behaves like a machine change: report-only.
        let old = parse_bench(&sample(36.0, "TestCpu")).unwrap();
        let new = parse_bench(&sample_v2(10.0, "avx2")).unwrap();
        let d = diff_bench(&old, &new, 25.0);
        assert!(d.machine_mismatch);
        assert!(d.regressions.is_empty());
        assert!(d.report.contains("roofline (new machine)"), "{}", d.report);
        assert!(d.report.contains("% roofline]"), "{}", d.report);
    }

    fn sample_v3(int8_ips: f64, gflops_256: f64) -> String {
        format!(
            r#"{{
  "schema": "cq-bench-kernels/v3",
  "pr": 9,
  "scale": "quick",
  "unix_secs": 1,
  "machine": {{"os": "linux", "arch": "x86_64", "cpu": "TestCpu", "threads": 8,
               "threads_effective": 4, "simd": "avx2"}},
  "roofline": {{"peak_gflops": 120.0, "stream_gbs": 18.0}},
  "kernels": [
    {{"kernel": "matmul", "m": 256, "n": 256, "k": 256, "iters": 9,
      "gflops": {gflops_256}, "ref_gflops": 15.0, "speedup": 2.4,
      "ai": 42.7, "roofline_pct": 30.0}},
    {{"kernel": "matmul_i8", "m": 256, "n": 256, "k": 256, "iters": 9,
      "gflops": 80.0, "ref_gflops": 25.0, "speedup": 3.2,
      "ai": 63.0, "roofline_pct": 110.0}}
  ],
  "int8_encoders": [
    {{"arch": "ResNet18", "n": 128, "f32_imgs_per_sec": 1100.0,
      "int8_imgs_per_sec": {int8_ips}, "ratio": 0.6}}
  ],
  "pilot": {{"steps": 2, "steps_per_sec": 150.0}}
}}"#
        )
    }

    #[test]
    fn parse_bench_accepts_v3_and_requires_int8_encoders() {
        let report = parse_bench(&sample_v3(660.0, 36.0)).expect("valid v3 report");
        assert_eq!(report.pr, 9);
        // v3 keeps the v2 fingerprint format so same-machine v2-vs-v3
        // diffs still hard-gate.
        assert_eq!(report.machine, "linux/x86_64/TestCpu/4t/avx2");
        assert_eq!(report.int8_encoders.len(), 1);
        assert_eq!(report.int8_encoders[0].arch, "ResNet18");
        // i8 points may exceed 100% of the *FP* roofline; only > 0 is
        // required.
        assert!(report.kernels.iter().any(|p| p.kernel == "matmul_i8"));

        let missing = sample_v3(660.0, 36.0).replace("\"int8_encoders\"", "\"int8_encoderz\"");
        assert!(parse_bench(&missing).unwrap_err().contains("int8_encoders"));
        let bad_ips = sample_v3(-1.0, 36.0);
        assert!(parse_bench(&bad_ips).unwrap_err().contains("throughput"));
    }

    #[test]
    fn v2_vs_v3_same_machine_still_gates_shared_kernels() {
        // The fingerprint format did not change in v3, so the shared
        // kernel grid stays hard-gated across the schema bump.
        let old = parse_bench(&sample_v2(36.0, "avx2")).unwrap();
        let new = parse_bench(&sample_v3(660.0, 20.0)).unwrap(); // matmul -44.4%
        let d = diff_bench(&old, &new, 25.0);
        assert!(!d.machine_mismatch);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("matmul 256x256x256"));
        // Encoder points are new-only here: reported, never failed.
        assert!(d.report.contains("int8 ResNet18 n=128"), "{}", d.report);
    }

    #[test]
    fn v3_vs_v3_gates_int8_encoder_throughput() {
        let old = parse_bench(&sample_v3(660.0, 36.0)).unwrap();
        let ok = parse_bench(&sample_v3(600.0, 36.0)).unwrap(); // -9.1%
        let bad = parse_bench(&sample_v3(300.0, 36.0)).unwrap(); // -54.5%
        assert!(diff_bench(&old, &ok, 25.0).regressions.is_empty());
        let d = diff_bench(&old, &bad, 25.0);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("int8 ResNet18"), "{}", d.report);
    }

    /// v3 artifact with an f32 and an int8 conv point at the same lowered
    /// shape.
    fn sample_v3_conv_i8(gops: f64) -> String {
        sample_v3(660.0, 36.0).replace(
            "  ],\n  \"int8_encoders\"",
            &format!(
                r#"    ,{{"kernel": "conv2d", "m": 8, "n": 32768, "k": 72, "iters": 4,
      "gflops": 20.0, "ref_gflops": 10.0, "speedup": 2.0,
      "ai": 7.6, "roofline_pct": 40.0}},
    {{"kernel": "conv2d_i8", "m": 8, "n": 32768, "k": 72, "iters": 4,
      "gflops": {gops}, "ref_gflops": 4.0, "speedup": 10.0,
      "ai": 7.6, "roofline_pct": 90.0}}
  ],
  "int8_encoders""#
            ),
        )
    }

    #[test]
    fn conv2d_i8_points_parse_and_diff_as_integer_kernels() {
        let old = parse_bench(&sample_v3_conv_i8(40.0)).expect("valid report");
        let point = |r: &BenchReport, name: &str| {
            r.kernels
                .iter()
                .find(|p| p.kernel == name)
                .cloned()
                .expect("point present")
        };
        let (f32_conv, i8_conv) = (point(&old, "conv2d"), point(&old, "conv2d_i8"));
        // Same lowered shape, distinct grid points.
        assert_ne!(f32_conv.key(), i8_conv.key());
        assert_eq!((f32_conv.unit(), i8_conv.unit()), ("GFLOP/s", "GOP/s"));
        assert_eq!(point(&old, "matmul_i8").unit(), "GOP/s");

        let slower = parse_bench(&sample_v3_conv_i8(20.0)).unwrap(); // -50%
        let d = diff_bench(&old, &slower, 25.0);
        assert_eq!(d.regressions.len(), 1, "{}", d.report);
        assert!(d.regressions[0].contains("conv2d_i8 8x32768x72"));
        assert!(d.report.contains("40.00 -> 20.00 GOP/s"), "{}", d.report);
        // Against an artifact without the point it is reported as new.
        let d = diff_bench(&parse_bench(&sample_v3(660.0, 36.0)).unwrap(), &old, 25.0);
        assert!(d.regressions.is_empty());
        assert!(
            d.report.contains("new   conv2d_i8 8x32768x72"),
            "{}",
            d.report
        );
    }

    /// v3 artifact with the two batch-128 f32 conv pass points of one
    /// layer (`c8o8` at 16×16), the forward at `fwd_gflops`.
    fn sample_v3_conv_passes(fwd_gflops: f64) -> String {
        sample_v3(660.0, 36.0).replace(
            "  ],\n  \"int8_encoders\"",
            &format!(
                r#"    ,{{"kernel": "conv2d_fwd", "m": 8, "n": 32768, "k": 72, "iters": 40,
      "gflops": {fwd_gflops}, "ref_gflops": 5.0, "speedup": 7.0,
      "ai": 3.5, "roofline_pct": 60.0}},
    {{"kernel": "conv2d_bwd", "m": 8, "n": 32768, "k": 72, "iters": 20,
      "gflops": 38.0, "ref_gflops": 4.5, "speedup": 8.4,
      "ai": 3.5, "roofline_pct": 58.0}}
  ],
  "int8_encoders""#
            ),
        )
    }

    #[test]
    fn conv_pass_points_parse_and_diff_as_f32_kernels() {
        let old = parse_bench(&sample_v3_conv_passes(35.0)).expect("valid report");
        let passes: Vec<&KernelPoint> = old
            .kernels
            .iter()
            .filter(|p| p.kernel.starts_with("conv2d_") && p.kernel != "conv2d_i8")
            .collect();
        let names: Vec<&str> = passes.iter().map(|p| p.kernel.as_str()).collect();
        assert_eq!(names, ["conv2d_fwd", "conv2d_bwd"]);
        for p in &passes {
            assert!(!is_integer_kernel(&p.kernel), "{}", p.kernel);
            assert_eq!(p.unit(), "GFLOP/s");
        }
        // Both points key on the forward product shape, O x N·P x T.
        assert_eq!(passes[1].key(), ("conv2d_bwd".to_string(), 8, 32768, 72));

        let slower = parse_bench(&sample_v3_conv_passes(17.0)).unwrap(); // -51%
        let d = diff_bench(&old, &slower, 25.0);
        assert_eq!(d.regressions.len(), 1, "{}", d.report);
        assert!(
            d.regressions[0].contains("conv2d_fwd 8x32768x72"),
            "{}",
            d.report
        );
        assert!(d.report.contains("35.00 -> 17.00 GFLOP/s"), "{}", d.report);
    }

    /// v3 artifact with the two batch-128 depthwise pass points of one
    /// layer (`C = 48` at 16×16, stride 2), the forward at `fwd_gflops`.
    fn sample_v3_dw_passes(fwd_gflops: f64) -> String {
        sample_v3(660.0, 36.0).replace(
            "  ],\n  \"int8_encoders\"",
            &format!(
                r#"    ,{{"kernel": "dw_fwd", "m": 48, "n": 8192, "k": 9, "iters": 40,
      "gflops": {fwd_gflops}, "ref_gflops": 0.9, "speedup": 8.0,
      "ai": 2.2, "roofline_pct": 20.0}},
    {{"kernel": "dw_bwd", "m": 48, "n": 8192, "k": 9, "iters": 20,
      "gflops": 5.5, "ref_gflops": 0.8, "speedup": 6.9,
      "ai": 2.2, "roofline_pct": 14.0}}
  ],
  "int8_encoders""#
            ),
        )
    }

    #[test]
    fn depthwise_pass_points_parse_and_diff_as_f32_kernels() {
        let old = parse_bench(&sample_v3_dw_passes(7.2)).expect("valid report");
        let passes: Vec<&KernelPoint> = old
            .kernels
            .iter()
            .filter(|p| p.kernel.starts_with("dw_"))
            .collect();
        let names: Vec<&str> = passes.iter().map(|p| p.kernel.as_str()).collect();
        assert_eq!(names, ["dw_fwd", "dw_bwd"]);
        for p in &passes {
            assert!(!is_integer_kernel(&p.kernel), "{}", p.kernel);
            assert_eq!(p.unit(), "GFLOP/s");
        }
        // Both points key on C x N·P x T.
        assert_eq!(passes[1].key(), ("dw_bwd".to_string(), 48, 8192, 9));

        let slower = parse_bench(&sample_v3_dw_passes(3.0)).unwrap(); // -58%
        let d = diff_bench(&old, &slower, 25.0);
        assert_eq!(d.regressions.len(), 1, "{}", d.report);
        assert!(
            d.regressions[0].contains("dw_fwd 48x8192x9"),
            "{}",
            d.report
        );
        assert!(d.report.contains("7.20 -> 3.00 GFLOP/s"), "{}", d.report);
    }

    /// v3 artifact with the optional PR-10 `ew_chains` section attached.
    fn sample_v3_chains(fused_gbs: f64) -> String {
        let chains = format!(
            r#"  "ew_chains": [
    {{"chain": "bn_add3_relu_q8", "elems": 4194304, "groups": 5, "iters": 3,
      "fused_gbs": {fused_gbs}, "unfused_gbs": 10.0, "speedup": 1.5}}
  ],
  "pilot""#
        );
        sample_v3(660.0, 36.0).replace("  \"pilot\"", &chains)
    }

    #[test]
    fn parse_bench_validates_optional_ew_chains() {
        let report = parse_bench(&sample_v3_chains(15.0)).expect("valid report");
        assert_eq!(report.ew_chains.len(), 1);
        assert_eq!(report.ew_chains[0].groups, 5);
        assert!((report.ew_chains[0].speedup() - 1.5).abs() < 1e-9);

        // The section is optional: the plain v3 sample still parses with
        // an empty vector.
        let plain = parse_bench(&sample_v3(660.0, 36.0)).expect("plain v3");
        assert!(plain.ew_chains.is_empty());

        // But when present, entries must be well-formed and positive.
        assert!(parse_bench(&sample_v3_chains(-1.0))
            .unwrap_err()
            .contains("throughput"));
        let bad_groups = sample_v3_chains(15.0).replace("\"groups\": 5", "\"groups\": 0");
        assert!(parse_bench(&bad_groups).unwrap_err().contains("groups"));
    }

    #[test]
    fn diff_gates_fused_chain_throughput() {
        let old = parse_bench(&sample_v3_chains(15.0)).unwrap();
        let ok = parse_bench(&sample_v3_chains(13.0)).unwrap(); // within 25%
        let bad = parse_bench(&sample_v3_chains(7.0)).unwrap(); // -53%
        assert!(diff_bench(&old, &ok, 25.0).regressions.is_empty());
        let d = diff_bench(&old, &bad, 25.0);
        assert_eq!(d.regressions.len(), 1, "{}", d.report);
        assert!(d.regressions[0].contains("ew bn_add3_relu_q8"));
        // A new-only section (old artifact predates PR 10) reports, never
        // gates.
        let pre = parse_bench(&sample_v3(660.0, 36.0)).unwrap();
        let d = diff_bench(&pre, &bad, 25.0);
        assert!(d.regressions.is_empty());
        assert!(d.report.contains("no old measurement"), "{}", d.report);
    }

    #[test]
    fn diff_never_fails_across_machines() {
        let old = parse_bench(&sample(36.0, "CpuA")).unwrap();
        let new = parse_bench(&sample(10.0, "CpuB")).unwrap();
        let d = diff_bench(&old, &new, 25.0);
        assert!(d.machine_mismatch);
        assert!(d.regressions.is_empty());
        assert!(d.report.contains("gate disarmed"));
    }
}
