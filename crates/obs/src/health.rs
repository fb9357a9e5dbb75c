//! Online training-health monitor: streaming detectors over the metric
//! stream that turn raw telemetry into [`Verdict`]s.
//!
//! ## Detectors
//!
//! | detector | watches | math |
//! |---|---|---|
//! | `nan_sentinel` | `train.loss`, `train.grad_norm`, `train.nonfinite_steps` | non-finite value (or a positive non-finite-step count) → Critical |
//! | `grad_anomaly` | `train.grad_norm` | EWMA mean/variance z-score; after a warmup of `ewma_warmup` samples, `abs(z) > warn_z` → Warn, `> crit_z` → Critical |
//! | `loss_plateau` | `train.loss` | no relative improvement over the best loss by `plateau_min_delta` for `plateau_patience` observations → Warn |
//! | `collapse_probe` | `embed.feature_std`, `embed.pos_cosine`, `embed.uniformity` | SSL collapse thresholds (feature std → 0, positive cosine → 1, uniformity → 0) |
//!
//! ## Wiring
//!
//! The monitor is process-global, like the sink. [`crate::metric`] feeds
//! every observation to `observe_metric` while the monitor is installed
//! — gated on one extra relaxed atomic load, so with `CQ_OBS_HEALTH=off`
//! (or unset) the hot path cost is unchanged and the PR-2 zero-allocation
//! guard still holds. Non-Ok verdicts are emitted as
//! [`Event::Health`](crate::Event::Health) records (reaching the JSONL
//! trace and the summary aggregate whenever a sink is installed) and kept
//! in an internal capped log readable via [`verdicts`].
//!
//! ## Policy
//!
//! `CQ_OBS_HEALTH=off|warn|abort` selects the [`HealthPolicy`]: `warn`
//! records verdicts but never interferes with the run; `abort` latches an
//! abort request on the first Critical verdict, which the trainers check
//! once per step ([`abort_requested`]) and surface as an error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::names;

/// Health state of one detector observation: ordered, `Critical` worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Verdict {
    /// Nothing suspicious.
    #[default]
    Ok,
    /// Suspicious but survivable; recorded, never aborts.
    Warn,
    /// The run is damaged (NaN loss, collapsed encoder, exploding
    /// gradients); aborts the run under [`HealthPolicy::Abort`].
    Critical,
}

impl Verdict {
    /// Stable lowercase spelling (used by the JSONL schema and cq-trace).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Critical => "critical",
        }
    }

    /// Parses the spelling produced by [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "ok" => Some(Verdict::Ok),
            "warn" => Some(Verdict::Warn),
            "critical" => Some(Verdict::Critical),
            _ => None,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the process does with verdicts (`CQ_OBS_HEALTH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthPolicy {
    /// Monitor not installed; hooks stay no-ops.
    #[default]
    Off,
    /// Record verdicts (events + log), never interfere with the run.
    Warn,
    /// Additionally latch an abort request on the first Critical verdict.
    Abort,
}

impl HealthPolicy {
    /// Parses a `CQ_OBS_HEALTH` value; unknown spellings mean [`Off`].
    ///
    /// [`Off`]: HealthPolicy::Off
    pub fn parse(s: &str) -> HealthPolicy {
        match s.to_ascii_lowercase().as_str() {
            "warn" => HealthPolicy::Warn,
            "abort" => HealthPolicy::Abort,
            _ => HealthPolicy::Off,
        }
    }
}

/// Detector thresholds. The defaults are deliberately conservative: a
/// healthy run should produce no Critical verdict, and Warn verdicts only
/// under genuinely odd telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor for the gradient-norm mean/variance.
    pub ewma_alpha: f64,
    /// Observations before the z-score fires (the EWMA needs history).
    pub ewma_warmup: u32,
    /// `abs(z)` above this → Warn.
    pub ewma_warn_z: f64,
    /// `abs(z)` above this → Critical.
    pub ewma_crit_z: f64,
    /// Loss observations without relative improvement before Warn.
    pub plateau_patience: u32,
    /// Minimum relative improvement over the best loss that counts.
    pub plateau_min_delta: f64,
    /// `embed.feature_std` below this → Warn (collapse forming).
    pub std_warn: f64,
    /// `embed.feature_std` below this → Critical (collapsed).
    pub std_crit: f64,
    /// `embed.pos_cosine` above this → Warn.
    pub cos_warn: f64,
    /// `embed.pos_cosine` above this → Critical.
    pub cos_crit: f64,
    /// `embed.uniformity` above this (i.e. toward 0) → Warn.
    pub uniformity_warn: f64,
    /// `embed.uniformity` above this → Critical.
    pub uniformity_crit: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_alpha: 0.2,
            ewma_warmup: 4,
            ewma_warn_z: 4.0,
            ewma_crit_z: 8.0,
            plateau_patience: 200,
            plateau_min_delta: 1e-3,
            std_warn: 0.2,
            std_crit: 0.05,
            cos_warn: 0.995,
            cos_crit: 0.9999,
            uniformity_warn: -0.05,
            uniformity_crit: -0.005,
        }
    }
}

/// One non-Ok detector firing.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictEvent {
    /// Detector that fired (`nan_sentinel`, `grad_anomaly`, ...).
    pub detector: &'static str,
    /// Severity.
    pub verdict: Verdict,
    /// Step of the observation that fired.
    pub step: u64,
    /// The observed value.
    pub value: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// Streaming EWMA mean/variance z-score detector (gradient anomalies).
#[derive(Debug, Clone, Default)]
pub struct EwmaZScore {
    mean: f64,
    var: f64,
    seen: u32,
}

impl EwmaZScore {
    /// Feeds one observation; returns the z-score of `x` against the
    /// pre-update EWMA once `warmup` samples have been absorbed. The EWMA
    /// is only updated with non-anomalous values (|z| below `crit_z`), so
    /// one explosion does not swallow the next.
    pub fn observe(&mut self, x: f64, cfg: &HealthConfig) -> Option<f64> {
        if !x.is_finite() {
            return None; // the NaN sentinel owns non-finite values
        }
        let z = if self.seen >= cfg.ewma_warmup && self.var > 0.0 {
            Some((x - self.mean) / self.var.sqrt().max(1e-12))
        } else {
            None
        };
        let anomalous = z.is_some_and(|z| z.abs() > cfg.ewma_crit_z);
        if !anomalous {
            if self.seen == 0 {
                self.mean = x;
                // Seed the variance from the first magnitude so early
                // z-scores are conservative rather than infinite.
                self.var = (x * x).max(1e-12);
            } else {
                let a = cfg.ewma_alpha;
                let d = x - self.mean;
                self.mean += a * d;
                self.var = (1.0 - a) * (self.var + a * d * d);
            }
            self.seen += 1;
        }
        z
    }

    /// Observations absorbed into the EWMA so far.
    pub fn seen(&self) -> u32 {
        self.seen
    }
}

/// Streaming loss-plateau detector.
#[derive(Debug, Clone)]
pub struct Plateau {
    best: f64,
    since_improve: u32,
    fired: bool,
}

impl Default for Plateau {
    fn default() -> Self {
        Plateau {
            best: f64::INFINITY,
            since_improve: 0,
            fired: false,
        }
    }
}

impl Plateau {
    /// Feeds one loss observation; returns `true` exactly once, when the
    /// loss has not improved on its best value by `plateau_min_delta`
    /// (relative) for `plateau_patience` observations. A later
    /// improvement re-arms the detector.
    pub fn observe(&mut self, loss: f64, cfg: &HealthConfig) -> bool {
        if !loss.is_finite() {
            return false;
        }
        let improved = loss < self.best - cfg.plateau_min_delta * self.best.abs().max(1e-12);
        if improved || self.best.is_infinite() {
            self.best = self.best.min(loss);
            self.since_improve = 0;
            self.fired = false;
            return false;
        }
        self.since_improve += 1;
        if self.since_improve >= cfg.plateau_patience && !self.fired {
            self.fired = true;
            return true;
        }
        false
    }

    /// Observations since the last improvement.
    pub fn since_improve(&self) -> u32 {
        self.since_improve
    }
}

const MAX_LOGGED: usize = 64;
const MAX_FIRES_PER_DETECTOR: u32 = 8;

/// The full detector set, usable standalone (cq-trace replays traces
/// through one) or behind the process-global monitor.
#[derive(Debug, Clone)]
pub struct HealthEngine {
    cfg: HealthConfig,
    grad: EwmaZScore,
    plateau: Plateau,
    worst: Verdict,
    log: Vec<VerdictEvent>,
    fires: [(&'static str, u32); 4],
    last_step: Option<u64>,
}

const DET_NAN: &str = "nan_sentinel";
const DET_GRAD: &str = "grad_anomaly";
const DET_PLATEAU: &str = "loss_plateau";
const DET_COLLAPSE: &str = "collapse_probe";

impl Default for HealthEngine {
    fn default() -> Self {
        HealthEngine::new(HealthConfig::default())
    }
}

impl HealthEngine {
    /// Creates an engine with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthEngine {
            cfg,
            grad: EwmaZScore::default(),
            plateau: Plateau::default(),
            worst: Verdict::Ok,
            log: Vec::new(),
            fires: [
                (DET_NAN, 0),
                (DET_GRAD, 0),
                (DET_PLATEAU, 0),
                (DET_COLLAPSE, 0),
            ],
            last_step: None,
        }
    }

    /// Feeds one metric observation through every detector that watches
    /// it. Returns the verdict events that fired (usually none — the
    /// healthy path allocates nothing beyond this empty `Vec`).
    pub fn observe(&mut self, name: &str, step: u64, value: f64) -> Vec<VerdictEvent> {
        // A step counter moving backwards means a new training phase in
        // the same process (bench binaries chain pretrain → fine-tune →
        // linear probe, each restarting at step 0). Per-run state must
        // not leak across the boundary: a fine-tune's small grad norms
        // would otherwise make the next pretrain's normal ones look like
        // a many-sigma anomaly.
        match self.last_step {
            Some(last) if step < last => {
                self.grad = EwmaZScore::default();
                self.plateau = Plateau::default();
                self.last_step = Some(step);
            }
            Some(last) => self.last_step = Some(last.max(step)),
            None => self.last_step = Some(step),
        }
        let mut fired = Vec::new();
        match name {
            n if n == names::TRAIN_LOSS => {
                if !value.is_finite() {
                    self.fire(&mut fired, DET_NAN, Verdict::Critical, step, value, || {
                        format!("loss is {value} at step {step}")
                    });
                } else if self.plateau.observe(value, &self.cfg) {
                    let patience = self.cfg.plateau_patience;
                    let best = self.plateau.best;
                    self.fire(&mut fired, DET_PLATEAU, Verdict::Warn, step, value, || {
                        format!("loss has not improved for {patience} steps (best {best:.6})")
                    });
                }
            }
            n if n == names::TRAIN_GRAD_NORM => {
                if !value.is_finite() {
                    self.fire(&mut fired, DET_NAN, Verdict::Critical, step, value, || {
                        format!("gradient norm is {value} at step {step}")
                    });
                } else if let Some(z) = self.grad.observe(value, &self.cfg) {
                    let za = z.abs();
                    if za > self.cfg.ewma_crit_z {
                        self.fire(&mut fired, DET_GRAD, Verdict::Critical, step, value, || {
                            format!("grad norm {value:.4e} is {za:.1} EWMA sigmas from the mean")
                        });
                    } else if za > self.cfg.ewma_warn_z {
                        self.fire(&mut fired, DET_GRAD, Verdict::Warn, step, value, || {
                            format!("grad norm {value:.4e} is {za:.1} EWMA sigmas from the mean")
                        });
                    }
                }
            }
            n if n == names::TRAIN_NONFINITE_STEPS && value > 0.0 => {
                self.fire(&mut fired, DET_NAN, Verdict::Critical, step, value, || {
                    format!("{value:.0} steps this epoch had non-finite loss/gradients")
                });
            }
            n if n == names::EMBED_FEATURE_STD => {
                let (wt, ct) = (self.cfg.std_warn, self.cfg.std_crit);
                if value < ct {
                    self.fire(&mut fired, DET_COLLAPSE, Verdict::Critical, step, value, || {
                        format!("projector feature std {value:.4} < {ct} — representation collapsed")
                    });
                } else if value < wt {
                    self.fire(&mut fired, DET_COLLAPSE, Verdict::Warn, step, value, || {
                        format!("projector feature std {value:.4} < {wt} — collapse forming")
                    });
                }
            }
            n if n == names::EMBED_POS_COSINE => {
                let (wt, ct) = (self.cfg.cos_warn, self.cfg.cos_crit);
                if value > ct {
                    self.fire(
                        &mut fired,
                        DET_COLLAPSE,
                        Verdict::Critical,
                        step,
                        value,
                        || {
                            format!(
                                "positive-pair cosine {value:.6} > {ct} — views indistinguishable"
                            )
                        },
                    );
                } else if value > wt {
                    self.fire(&mut fired, DET_COLLAPSE, Verdict::Warn, step, value, || {
                        format!("positive-pair cosine {value:.6} > {wt}")
                    });
                }
            }
            n if n == names::EMBED_UNIFORMITY => {
                let (wt, ct) = (self.cfg.uniformity_warn, self.cfg.uniformity_crit);
                if value > ct {
                    self.fire(
                        &mut fired,
                        DET_COLLAPSE,
                        Verdict::Critical,
                        step,
                        value,
                        || format!("uniformity {value:.4} > {ct} — embeddings concentrated"),
                    );
                } else if value > wt {
                    self.fire(&mut fired, DET_COLLAPSE, Verdict::Warn, step, value, || {
                        format!("uniformity {value:.4} > {wt}")
                    });
                }
            }
            _ => {}
        }
        fired
    }

    fn fire<F: FnOnce() -> String>(
        &mut self,
        out: &mut Vec<VerdictEvent>,
        detector: &'static str,
        verdict: Verdict,
        step: u64,
        value: f64,
        message: F,
    ) {
        self.worst = self.worst.max(verdict);
        let slot = self.fires.iter_mut().find(|(d, _)| *d == detector);
        if let Some((_, n)) = slot {
            // Bound event volume: a NaN loss fires every step of a dead
            // run; eight records carry the signal, the rest is noise.
            if *n >= MAX_FIRES_PER_DETECTOR {
                return;
            }
            *n += 1;
        }
        let ev = VerdictEvent {
            detector,
            verdict,
            step,
            value,
            message: message(),
        };
        if self.log.len() < MAX_LOGGED {
            self.log.push(ev.clone());
        }
        out.push(ev);
    }

    /// Worst verdict seen so far (including suppressed repeats).
    pub fn worst(&self) -> Verdict {
        self.worst
    }

    /// Worst verdict a specific detector has produced.
    pub fn worst_of(&self, detector: &str) -> Verdict {
        self.log
            .iter()
            .filter(|e| e.detector == detector)
            .map(|e| e.verdict)
            .max()
            .unwrap_or(Verdict::Ok)
    }

    /// The capped verdict log, in firing order.
    pub fn log(&self) -> &[VerdictEvent] {
        &self.log
    }

    /// The thresholds this engine runs with.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }
}

// ---------------------------------------------------------------------
// Process-global monitor (the online half).
// ---------------------------------------------------------------------

static HEALTH_ENABLED: AtomicBool = AtomicBool::new(false);
static ABORT_LATCHED: AtomicBool = AtomicBool::new(false);
static MONITOR: Mutex<Option<(HealthEngine, HealthPolicy)>> = Mutex::new(None);
static ABORT_MSG: Mutex<Option<String>> = Mutex::new(None);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the health monitor is installed. This is the one extra load
/// the metric hook pays while health is off.
#[inline]
pub fn enabled() -> bool {
    HEALTH_ENABLED.load(Ordering::Relaxed)
}

/// Installs the global monitor under `policy` (a fresh engine; any
/// previous verdict log and abort latch are cleared). `Off` uninstalls.
pub fn install(policy: HealthPolicy, cfg: HealthConfig) {
    ABORT_LATCHED.store(false, Ordering::SeqCst);
    *lock(&ABORT_MSG) = None;
    if policy == HealthPolicy::Off {
        HEALTH_ENABLED.store(false, Ordering::SeqCst);
        *lock(&MONITOR) = None;
        return;
    }
    *lock(&MONITOR) = Some((HealthEngine::new(cfg), policy));
    HEALTH_ENABLED.store(true, Ordering::SeqCst);
}

/// Uninstalls the monitor, returning its engine (verdict log included).
pub fn uninstall() -> Option<HealthEngine> {
    HEALTH_ENABLED.store(false, Ordering::SeqCst);
    ABORT_LATCHED.store(false, Ordering::SeqCst);
    *lock(&ABORT_MSG) = None;
    lock(&MONITOR).take().map(|(engine, _)| engine)
}

/// Reads `CQ_OBS_HEALTH` and installs the monitor accordingly; returns
/// the selected policy. Call next to `cq_obs::sink::init_from_env`.
pub fn init_from_env() -> HealthPolicy {
    let policy = std::env::var("CQ_OBS_HEALTH")
        .map(|v| HealthPolicy::parse(&v))
        .unwrap_or(HealthPolicy::Off);
    install(policy, HealthConfig::default());
    policy
}

/// Feeds one metric observation to the monitor (no-op when health is
/// off). Verdicts are emitted as [`Event::Health`](crate::Event::Health)
/// and, under [`HealthPolicy::Abort`], latch the abort request.
pub(crate) fn observe_metric(name: &str, step: u64, value: f64) {
    let fired = {
        let mut guard = lock(&MONITOR);
        let Some((engine, policy)) = guard.as_mut() else {
            return;
        };
        let fired = engine.observe(name, step, value);
        if *policy == HealthPolicy::Abort
            && fired.iter().any(|e| e.verdict == Verdict::Critical)
            && !ABORT_LATCHED.swap(true, Ordering::SeqCst)
        {
            if let Some(first) = fired.iter().find(|e| e.verdict == Verdict::Critical) {
                *lock(&ABORT_MSG) = Some(format!("[{}] {}", first.detector, first.message));
            }
        }
        fired
    };
    // Emit outside the monitor lock: sinks may be slow, and the Health
    // events should follow the metric that caused them in the trace.
    for ev in fired {
        crate::emit(crate::Event::Health {
            detector: ev.detector,
            verdict: ev.verdict,
            step: ev.step,
            value: ev.value,
            message: ev.message,
        });
    }
}

/// Returns the abort message once a Critical verdict has latched under
/// [`HealthPolicy::Abort`]. Trainers poll this once per step.
pub fn abort_requested() -> Option<String> {
    if !ABORT_LATCHED.load(Ordering::Relaxed) {
        return None;
    }
    lock(&ABORT_MSG).clone()
}

/// Snapshot of the monitor's verdict log (empty when health is off).
pub fn verdicts() -> Vec<VerdictEvent> {
    lock(&MONITOR)
        .as_ref()
        .map(|(e, _)| e.log().to_vec())
        .unwrap_or_default()
}

/// Worst verdict the monitor has seen (Ok when health is off).
pub fn worst() -> Verdict {
    lock(&MONITOR)
        .as_ref()
        .map(|(e, _)| e.worst())
        .unwrap_or(Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    #[test]
    fn verdict_order_and_spelling() {
        assert!(Verdict::Ok < Verdict::Warn);
        assert!(Verdict::Warn < Verdict::Critical);
        for v in [Verdict::Ok, Verdict::Warn, Verdict::Critical] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verdict::parse("bogus"), None);
        assert_eq!(HealthPolicy::parse("ABORT"), HealthPolicy::Abort);
        assert_eq!(HealthPolicy::parse("warn"), HealthPolicy::Warn);
        assert_eq!(HealthPolicy::parse("nope"), HealthPolicy::Off);
    }

    #[test]
    fn ewma_flags_synthetic_spike_not_steady_series() {
        let c = cfg();
        let mut d = EwmaZScore::default();
        // Steady series with mild noise: no z beyond warn threshold.
        for i in 0..50 {
            let x = 5.0 + 0.1 * ((i % 7) as f64 - 3.0);
            if let Some(z) = d.observe(x, &c) {
                assert!(z.abs() < c.ewma_warn_z, "steady series fired: z={z}");
            }
        }
        // A 100x spike must exceed the critical threshold.
        let z = d.observe(500.0, &c).expect("past warmup");
        assert!(z.abs() > c.ewma_crit_z, "spike z={z}");
        // The spike was not absorbed: the next normal value is quiet.
        let z2 = d.observe(5.0, &c).expect("past warmup");
        assert!(z2.abs() < c.ewma_warn_z, "post-spike z={z2}");
    }

    #[test]
    fn ewma_warmup_suppresses_early_scores() {
        let c = cfg();
        let mut d = EwmaZScore::default();
        for i in 0..c.ewma_warmup {
            assert_eq!(d.observe(1.0 + i as f64, &c), None, "warmup sample {i}");
        }
        assert!(d.observe(1.0, &c).is_some());
    }

    #[test]
    fn plateau_fires_once_and_rearms_on_improvement() {
        let mut c = cfg();
        c.plateau_patience = 5;
        let mut p = Plateau::default();
        assert!(!p.observe(1.0, &c));
        for i in 0..4 {
            assert!(!p.observe(1.0, &c), "observation {i}");
        }
        assert!(p.observe(1.0, &c), "patience exhausted");
        assert!(!p.observe(1.0, &c), "fires only once");
        // A genuine improvement re-arms.
        assert!(!p.observe(0.5, &c));
        assert_eq!(p.since_improve(), 0);
        for i in 0..4 {
            assert!(!p.observe(0.5, &c), "observation {i}");
        }
        assert!(p.observe(0.5, &c), "re-armed after improvement");
    }

    #[test]
    fn engine_nan_sentinel_and_fire_cap() {
        let mut e = HealthEngine::default();
        for step in 0..20 {
            e.observe(names::TRAIN_LOSS, step, f64::NAN);
        }
        assert_eq!(e.worst(), Verdict::Critical);
        assert_eq!(e.worst_of(DET_NAN), Verdict::Critical);
        let nan_fires = e.log().iter().filter(|v| v.detector == DET_NAN).count();
        assert_eq!(nan_fires as u32, MAX_FIRES_PER_DETECTOR, "volume bounded");
    }

    #[test]
    fn engine_collapse_thresholds() {
        let mut e = HealthEngine::default();
        e.observe(names::EMBED_FEATURE_STD, 0, 0.9); // healthy
        assert_eq!(e.worst(), Verdict::Ok);
        e.observe(names::EMBED_FEATURE_STD, 1, 0.1); // forming
        assert_eq!(e.worst(), Verdict::Warn);
        e.observe(names::EMBED_FEATURE_STD, 2, 0.01); // collapsed
        assert_eq!(e.worst(), Verdict::Critical);
        assert_eq!(e.worst_of(DET_COLLAPSE), Verdict::Critical);

        let mut e = HealthEngine::default();
        e.observe(names::EMBED_POS_COSINE, 0, 0.997);
        assert_eq!(e.worst(), Verdict::Warn);
        e.observe(names::EMBED_UNIFORMITY, 0, -0.001);
        assert_eq!(e.worst(), Verdict::Critical);
    }

    #[test]
    fn engine_nonfinite_step_count_trips_sentinel() {
        let mut e = HealthEngine::default();
        e.observe(names::TRAIN_NONFINITE_STEPS, 3, 0.0);
        assert_eq!(e.worst(), Verdict::Ok);
        e.observe(names::TRAIN_NONFINITE_STEPS, 6, 2.0);
        assert_eq!(e.worst_of(DET_NAN), Verdict::Critical);
    }

    #[test]
    fn engine_resets_run_state_when_step_counter_restarts() {
        let mut e = HealthEngine::default();
        // Phase one: a fine-tune with small, steady grad norms — enough
        // to complete the EWMA warmup.
        for step in 0..12 {
            e.observe(names::TRAIN_GRAD_NORM, step, 0.05);
        }
        // Phase two restarts at step 0 with 100x larger (but internally
        // steady) grad norms: without the phase reset these would read
        // as a many-sigma anomaly against phase one's statistics.
        for step in 0..12 {
            e.observe(names::TRAIN_GRAD_NORM, step, 5.0 + 0.05 * (step % 3) as f64);
        }
        assert_eq!(e.worst(), Verdict::Ok, "{:?}", e.log());
        // Within-phase spikes still fire.
        e.observe(names::TRAIN_GRAD_NORM, 12, 500.0);
        assert_eq!(e.worst_of(DET_GRAD), Verdict::Critical);
    }

    #[test]
    fn global_monitor_latches_abort_only_under_abort_policy() {
        let _g = crate::test_lock();
        install(HealthPolicy::Warn, cfg());
        observe_metric(names::TRAIN_LOSS, 0, f64::INFINITY);
        assert_eq!(worst(), Verdict::Critical);
        assert_eq!(abort_requested(), None, "warn policy never aborts");
        install(HealthPolicy::Abort, cfg());
        assert_eq!(worst(), Verdict::Ok, "install resets the engine");
        observe_metric(names::TRAIN_LOSS, 3, f64::NAN);
        let msg = abort_requested().expect("critical under abort policy");
        assert!(msg.contains("nan_sentinel"), "{msg}");
        assert_eq!(verdicts().len(), 1);
        uninstall();
        assert_eq!(abort_requested(), None);
        assert!(!enabled());
    }
}
