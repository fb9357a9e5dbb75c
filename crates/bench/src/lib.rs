//! # cq-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index). The binaries in
//! `src/bin/` print paper-style markdown tables; the criterion benches in
//! `benches/` measure component throughput.
//!
//! ## Scale
//!
//! Every binary accepts `--scale quick|paper` (or the `CQ_SCALE` env
//! var). `quick` — the default — targets minutes per table on a laptop;
//! `paper` runs longer for tighter numbers. Both run the *same* protocol,
//! only sizes change, and all methods within a table always share sizes,
//! seeds and data so comparisons stay fair.

#![deny(missing_docs)]

pub mod parity;

use cq_core::{ByolTrainer, Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_eval::{finetune, linear_eval, FinetuneConfig, LinearEvalConfig, Table};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_nn::NnError;
use cq_quant::{Precision, PrecisionSet};

/// Run scale: quick (CI/laptop) or paper (longer, tighter numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes per table.
    Quick,
    /// Tens of minutes per table.
    Paper,
}

impl Scale {
    /// Parses a scale name: exactly `quick` or `paper`, case-insensitive
    /// (`full` is accepted as a legacy alias for `paper`). Anything else
    /// is an error — a typo'd scale must never silently run `quick`.
    ///
    /// # Errors
    ///
    /// Returns the rejection message shown to the user.
    pub fn try_parse(v: &str) -> std::result::Result<Scale, String> {
        match v.to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "paper" | "full" => Ok(Scale::Paper),
            _ => Err(format!("invalid scale `{v}`: expected `quick` or `paper`")),
        }
    }

    /// Parses `--scale` from argv, falling back to the `CQ_SCALE` env var
    /// and then to `Quick`. Exits with code 2 on an invalid value.
    pub fn from_args() -> Scale {
        let env = std::env::var("CQ_SCALE").ok();
        match Scale::resolve(std::env::args().skip(1), env.as_deref()) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("cq-bench: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Pure resolution logic behind [`Scale::from_args`]: the `--scale`
    /// flag wins over the `CQ_SCALE` env value; both must parse exactly;
    /// with neither present the default is `Quick`.
    fn resolve(
        args: impl Iterator<Item = String>,
        env: Option<&str>,
    ) -> std::result::Result<Scale, String> {
        let mut args = args;
        while let Some(a) = args.next() {
            if a == "--scale" {
                let v = args
                    .next()
                    .ok_or_else(|| "--scale needs a value (quick|paper)".to_string())?;
                return Scale::try_parse(&v);
            } else if let Some(v) = a.strip_prefix("--scale=") {
                return Scale::try_parse(v);
            }
        }
        match env {
            Some(v) => Scale::try_parse(v).map_err(|e| format!("CQ_SCALE: {e}")),
            None => Ok(Scale::Quick),
        }
    }
}

/// Parses `--seed <n>` (or `--seed=<n>`) from argv: the seed of a
/// seeded run ([`Protocol::with_seed`]), or `None` without the flag.
/// Exits with code 2 on a missing or invalid value.
pub fn seed_from_args() -> Option<u64> {
    match parse_seed(std::env::args().skip(1)) {
        Ok(seed) => seed,
        Err(msg) => {
            eprintln!("cq-bench: {msg}");
            std::process::exit(2);
        }
    }
}

/// Pure parsing behind [`seed_from_args`].
fn parse_seed(mut args: impl Iterator<Item = String>) -> std::result::Result<Option<u64>, String> {
    while let Some(a) = args.next() {
        let v = if a == "--seed" {
            args.next().ok_or("--seed needs a value")?
        } else if let Some(v) = a.strip_prefix("--seed=") {
            v.to_string()
        } else {
            continue;
        };
        return v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid seed `{v}`: expected an unsigned integer"));
    }
    Ok(None)
}

/// The two dataset regimes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// CIFAR-100 stand-in: small, low-diversity.
    CifarLike,
    /// ImageNet stand-in: larger, higher-diversity.
    ImagenetLike,
}

/// All sizes of one experiment protocol (shared across methods so
/// comparisons are fair).
#[derive(Debug, Clone, PartialEq)]
pub struct Protocol {
    /// Dataset configuration.
    pub data: DatasetConfig,
    /// Backbone width.
    pub width: usize,
    /// Projection head (hidden, out).
    pub proj: (usize, usize),
    /// SSL pre-training epochs.
    pub pretrain_epochs: usize,
    /// SSL batch size.
    pub batch_size: usize,
    /// SSL learning rate.
    pub pretrain_lr: f32,
    /// Fine-tuning epochs.
    pub ft_epochs: usize,
    /// Linear-eval epochs.
    pub linear_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Protocol {
    /// Standard protocol for a regime at a scale.
    pub fn new(regime: Regime, scale: Scale) -> Protocol {
        let (data, width) = match regime {
            Regime::CifarLike => (DatasetConfig::cifarlike(), 8),
            Regime::ImagenetLike => (DatasetConfig::imagenetlike(), 8),
        };
        let (data, pretrain_epochs, ft_epochs, linear_epochs) = match scale {
            Scale::Quick => {
                let (tr, te) = match regime {
                    Regime::CifarLike => (512, 192),
                    Regime::ImagenetLike => (640, 192),
                };
                (data.with_sizes(tr, te), 8, 8, 25)
            }
            Scale::Paper => {
                let (tr, te) = match regime {
                    Regime::CifarLike => (2048, 512),
                    Regime::ImagenetLike => (4096, 1024),
                };
                (data.with_sizes(tr, te), 40, 30, 60)
            }
        };
        Protocol {
            data,
            width,
            proj: (64, 32),
            pretrain_epochs,
            batch_size: 128,
            pretrain_lr: 0.2,
            ft_epochs,
            linear_epochs,
            seed: 0xC0DE,
        }
    }

    /// This protocol with `seed` as its master seed and as its dataset's
    /// seed: one run of a multi-seed experiment.
    pub fn with_seed(mut self, seed: u64) -> Protocol {
        self.seed = seed;
        self.data = self.data.with_seed(seed);
        self
    }

    /// Generates the train/test splits for this protocol.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        Dataset::generate(&self.data)
    }

    /// Backbone width for an architecture: the deep 3-stage CIFAR ResNets
    /// (74/110/152) run at half width so the single-core experiment budget
    /// stays sane; comparisons are always within an architecture row, so
    /// this does not affect any method-vs-method conclusion.
    pub fn width_for(&self, arch: Arch) -> usize {
        match arch {
            Arch::ResNet74 | Arch::ResNet110 | Arch::ResNet152 => (self.width / 2).max(2),
            _ => self.width,
        }
    }

    /// Encoder configuration for a SimCLR run.
    pub fn encoder_cfg(&self, arch: Arch) -> EncoderConfig {
        EncoderConfig::new(arch, self.width_for(arch)).with_proj(self.proj.0, self.proj.1)
    }

    /// Encoder configuration for a BYOL run.
    pub fn byol_encoder_cfg(&self, arch: Arch) -> EncoderConfig {
        EncoderConfig::new(arch, self.width_for(arch)).with_byol_proj(self.proj.0, self.proj.1)
    }

    /// Pre-training configuration for a pipeline.
    pub fn pretrain_cfg(&self, pipeline: Pipeline, pset: Option<PrecisionSet>) -> PretrainConfig {
        PretrainConfig {
            pipeline,
            precision_set: pset,
            epochs: self.pretrain_epochs,
            batch_size: self.batch_size,
            lr: self.pretrain_lr,
            momentum: 0.9,
            weight_decay: 1e-4,
            temperature: 0.5,
            ema_tau: 0.99,
            explosion_threshold: 1e4,
            quant_mode: cq_quant::QuantMode::Round,
            sampling: cq_core::PrecisionSampling::Uniform,
            noise_std: 0.05,
            seed: self.seed,
        }
    }
}

/// Pre-trains an encoder with SimCLR + the given pipeline; returns the
/// encoder and the explosion rate (diagnostics for CQ-B).
///
/// # Errors
///
/// Propagates training errors.
pub fn pretrain_simclr(
    arch: Arch,
    pipeline: Pipeline,
    pset: Option<PrecisionSet>,
    proto: &Protocol,
    train: &Dataset,
) -> Result<(Encoder, f32), NnError> {
    let enc = Encoder::new(&proto.encoder_cfg(arch), proto.seed)?;
    let mut trainer = SimclrTrainer::new(enc, proto.pretrain_cfg(pipeline, pset))?;
    trainer.train(train)?;
    report_final_loss(trainer.history());
    let explosion = trainer.history().explosion_rate();
    Ok((trainer.into_encoder(), explosion))
}

/// Pre-trains an encoder with BYOL + the given pipeline.
///
/// # Errors
///
/// Propagates training errors.
pub fn pretrain_byol(
    arch: Arch,
    pipeline: Pipeline,
    pset: Option<PrecisionSet>,
    proto: &Protocol,
    train: &Dataset,
) -> Result<(Encoder, f32), NnError> {
    let enc = Encoder::new(&proto.byol_encoder_cfg(arch), proto.seed)?;
    let mut trainer = ByolTrainer::new(enc, proto.pretrain_cfg(pipeline, pset))?;
    trainer.train(train)?;
    report_final_loss(trainer.history());
    let explosion = trainer.history().explosion_rate();
    Ok((trainer.into_encoder(), explosion))
}

/// Prints a finished pre-training's last epoch loss on stderr, at full
/// precision: the per-seed loss that multi-seed comparisons pair.
fn report_final_loss(history: &cq_core::TrainHistory) {
    if let Some(loss) = history.epoch_losses.last() {
        eprintln!("  [pretrain] final epoch loss {loss}");
    }
}

/// The fine-tuning accuracy grid of the paper's tables:
/// (FP 10%, FP 1%, 4-bit 10%, 4-bit 1%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtGrid {
    /// Full-precision fine-tuning, 10% labels.
    pub fp10: f32,
    /// Full-precision fine-tuning, 1% labels.
    pub fp1: f32,
    /// 4-bit fine-tuning, 10% labels.
    pub q10: f32,
    /// 4-bit fine-tuning, 1% labels.
    pub q1: f32,
}

/// Runs the paper's 2×2 fine-tuning grid on a pretrained encoder.
///
/// # Errors
///
/// Propagates training errors.
pub fn finetune_grid(
    encoder: &Encoder,
    train: &Dataset,
    test: &Dataset,
    proto: &Protocol,
) -> Result<FtGrid, NnError> {
    let run = |precision: Precision, fraction: f32| -> Result<f32, NnError> {
        let cfg = FinetuneConfig {
            label_fraction: fraction,
            precision,
            epochs: proto.ft_epochs,
            batch_size: 64,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: proto.seed ^ 0xF1,
        };
        Ok(finetune(encoder, train, test, &cfg)?.test_acc)
    };
    Ok(FtGrid {
        fp10: run(Precision::Fp, 0.1)?,
        fp1: run(Precision::Fp, 0.01)?,
        q10: run(Precision::Bits(4), 0.1)?,
        q1: run(Precision::Bits(4), 0.01)?,
    })
}

/// Linear evaluation with the protocol's settings.
///
/// # Errors
///
/// Propagates training errors.
pub fn linear_probe(
    encoder: &mut Encoder,
    train: &Dataset,
    test: &Dataset,
    proto: &Protocol,
) -> Result<f32, NnError> {
    linear_eval(
        encoder,
        train,
        test,
        &LinearEvalConfig {
            epochs: proto.linear_epochs,
            batch_size: 64,
            lr: 0.1,
            momentum: 0.9,
            seed: proto.seed ^ 0x1E,
        },
    )
}

/// Formats an accuracy cell.
pub fn fmt_acc(v: f32) -> String {
    format!("{v:.2}")
}

/// Installs an observability sink according to `CQ_OBS` (see
/// `cq_obs::sink::init_from_env`) and the training-health monitor
/// according to `CQ_OBS_HEALTH` (see `cq_obs::health::init_from_env`),
/// announcing the choices on stderr. Call once at the top of every bench
/// binary's `main`.
pub fn obs_init() {
    if let Some(desc) = cq_obs::sink::init_from_env() {
        eprintln!("  [obs] {desc}");
    }
    match cq_obs::health::init_from_env() {
        cq_obs::health::HealthPolicy::Off => {}
        policy => eprintln!("  [obs] health monitor on ({policy:?} policy)"),
    }
}

/// Flushes counters and renders the summary report (per-phase time
/// breakdown, bit-width histogram, counters, metrics, health verdicts).
/// Returns `None` when observability was never enabled or nothing was
/// recorded, so binaries can print it only when there is something to
/// show.
pub fn obs_summary() -> Option<String> {
    if !cq_obs::enabled() {
        return None;
    }
    cq_obs::flush();
    let report = cq_obs::summary_report();
    if report.is_empty() {
        None
    } else {
        Some(report.render())
    }
}

/// The CSV file name of a table binary's run: `<stem>.csv`, or
/// `<stem>_s<seed>.csv` for a seeded run (`--seed`), so that the seeds of
/// a multi-seed experiment never overwrite each other.
pub fn csv_name(stem: &str, seed: Option<u64>) -> String {
    seed.map_or_else(|| format!("{stem}.csv"), |s| format!("{stem}_s{s}.csv"))
}

/// Writes `table` as CSV to `path`, or says which path failed and why.
fn write_table(table: &Table, path: &str) -> std::result::Result<(), String> {
    table
        .write_csv(std::path::Path::new(path))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// The end of a table binary: writes `table` as CSV to `path`, then
/// prints the observability summary, if there is one. The CSV is the
/// binary's result, so a failed write exits with code 1, naming the path
/// and the error.
pub fn finish(table: &Table, path: &str) {
    if let Err(msg) = write_table(table, path) {
        eprintln!("cq-bench: {msg}");
        std::process::exit(1);
    }
    print_obs_summary();
}

/// Prints [`obs_summary`] after a blank line, if there is one.
pub fn print_obs_summary() {
    if let Some(summary) = obs_summary() {
        // cq-check: allow — the summary is part of the calling binary's report
        println!("\n{summary}");
    }
}

/// Directory for cached pretrained encoders (`CQ_CACHE_DIR` env var, or
/// `target/cq-cache`). Several tables share the same pretrained encoders
/// (T1/T2/T3/F2); caching avoids recomputing them per binary.
pub fn cache_dir() -> std::path::PathBuf {
    let dir = std::env::var("CQ_CACHE_DIR").unwrap_or_else(|_| "target/cq-cache".into());
    let p = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Pre-trains with SimCLR + pipeline, cached on disk under `tag` and the
/// protocol's seed, so a run of one seed never loads another seed's
/// encoder. Returns the encoder and the explosion rate (0 when loaded
/// from cache — the rate is only meaningful on the run that trained).
///
/// The key does not name the kernels' arithmetic: runs that compare two
/// builds need a [`cache_dir`] each.
///
/// # Errors
///
/// Propagates training/serialisation errors.
pub fn pretrain_simclr_cached(
    tag: &str,
    arch: Arch,
    pipeline: Pipeline,
    pset: Option<PrecisionSet>,
    proto: &Protocol,
    train: &Dataset,
) -> Result<(Encoder, f32), NnError> {
    cached(tag, proto, || {
        pretrain_simclr(arch, pipeline, pset, proto, train)
    })
}

/// BYOL variant of [`pretrain_simclr_cached`].
///
/// # Errors
///
/// Propagates training/serialisation errors.
pub fn pretrain_byol_cached(
    tag: &str,
    arch: Arch,
    pipeline: Pipeline,
    pset: Option<PrecisionSet>,
    proto: &Protocol,
    train: &Dataset,
) -> Result<(Encoder, f32), NnError> {
    cached(tag, proto, || {
        pretrain_byol(arch, pipeline, pset, proto, train)
    })
}

/// The encoder cached as `{tag}-s{seed}.cqen`, or `pretrain`'s, saved
/// there.
fn cached(
    tag: &str,
    proto: &Protocol,
    pretrain: impl FnOnce() -> Result<(Encoder, f32), NnError>,
) -> Result<(Encoder, f32), NnError> {
    let key = format!("{tag}-s{}", proto.seed);
    let path = cache_dir().join(format!("{key}.cqen"));
    if let Ok(f) = std::fs::File::open(&path) {
        if let Ok(enc) = Encoder::load(std::io::BufReader::new(f)) {
            eprintln!("  [cache] loaded {key}");
            return Ok((enc, 0.0));
        }
    }
    eprintln!("  [train] {key}");
    let (enc, expl) = pretrain()?;
    let f = std::fs::File::create(&path)?;
    enc.save(std::io::BufWriter::new(f))?;
    Ok((enc, expl))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_accepts_exact_names_case_insensitively() {
        assert_eq!(Scale::try_parse("paper"), Ok(Scale::Paper));
        assert_eq!(Scale::try_parse("PAPER"), Ok(Scale::Paper));
        assert_eq!(Scale::try_parse("full"), Ok(Scale::Paper));
        assert_eq!(Scale::try_parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::try_parse("Quick"), Ok(Scale::Quick));
    }

    #[test]
    fn scale_parsing_rejects_everything_else_with_pinned_message() {
        // The messages are part of the CLI contract: pin them.
        assert_eq!(
            Scale::try_parse("garbage"),
            Err("invalid scale `garbage`: expected `quick` or `paper`".to_string())
        );
        assert_eq!(
            Scale::try_parse(""),
            Err("invalid scale ``: expected `quick` or `paper`".to_string())
        );
        assert_eq!(
            Scale::try_parse("quick "),
            Err("invalid scale `quick `: expected `quick` or `paper`".to_string())
        );
    }

    #[test]
    fn scale_flag_takes_precedence_over_env() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Flag wins over env.
        assert_eq!(
            Scale::resolve(args(&["--scale", "paper"]).into_iter(), Some("quick")),
            Ok(Scale::Paper)
        );
        assert_eq!(
            Scale::resolve(args(&["--scale=quick"]).into_iter(), Some("paper")),
            Ok(Scale::Quick)
        );
        // Env applies when no flag; default is Quick.
        assert_eq!(
            Scale::resolve(args(&[]).into_iter(), Some("paper")),
            Ok(Scale::Paper)
        );
        assert_eq!(
            Scale::resolve(args(&[]).into_iter(), None),
            Ok(Scale::Quick)
        );
        // Errors surface instead of silently defaulting, and name their
        // source.
        assert_eq!(
            Scale::resolve(args(&["--scale", "nope"]).into_iter(), None),
            Err("invalid scale `nope`: expected `quick` or `paper`".to_string())
        );
        assert_eq!(
            Scale::resolve(args(&["--scale"]).into_iter(), None),
            Err("--scale needs a value (quick|paper)".to_string())
        );
        assert_eq!(
            Scale::resolve(args(&[]).into_iter(), Some("nope")),
            Err("CQ_SCALE: invalid scale `nope`: expected `quick` or `paper`".to_string())
        );
        // The flag short-circuits before the env value is parsed, so a
        // bad CQ_SCALE cannot mask a valid --scale.
        assert_eq!(
            Scale::resolve(args(&["--scale", "quick"]).into_iter(), Some("nope")),
            Ok(Scale::Quick)
        );
    }

    #[test]
    fn seed_flag_parses_or_is_absent() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parse = |v: &[&str]| parse_seed(args(v).into_iter());
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--scale", "quick"]), Ok(None));
        assert_eq!(parse(&["--seed", "3"]), Ok(Some(3)));
        assert_eq!(parse(&["--scale", "quick", "--seed=17"]), Ok(Some(17)));
        assert_eq!(parse(&["--seed"]), Err("--seed needs a value".to_string()));
        assert_eq!(
            parse(&["--seed", "-1"]),
            Err("invalid seed `-1`: expected an unsigned integer".to_string())
        );
    }

    #[test]
    fn a_seeded_run_writes_its_own_csv() {
        for stem in ["table1", "table2", "table4", "table7"] {
            assert_eq!(csv_name(stem, None), format!("{stem}.csv"));
            assert_eq!(csv_name(stem, Some(0)), format!("{stem}_s0.csv"));
            assert_eq!(csv_name(stem, Some(17)), format!("{stem}_s17.csv"));
        }
    }

    #[test]
    fn a_failed_csv_write_names_the_path() {
        let mut table = Table::new("t", &["a"]);
        table.row_owned(vec!["1".into()]);
        let path = "no-such-directory/t.csv";
        let msg = write_table(&table, path).unwrap_err();
        assert!(msg.starts_with(&format!("cannot write {path}: ")), "{msg}");
    }

    #[test]
    fn a_seeded_protocol_reseeds_training_and_data() {
        let p = Protocol::new(Regime::ImagenetLike, Scale::Quick);
        let s = p.clone().with_seed(5);
        assert_eq!((s.seed, s.data.seed), (5, 5));
        assert_eq!(s.pretrain_cfg(Pipeline::Baseline, None).seed, 5);
        assert_eq!(s.data.clone().with_seed(p.data.seed), p.data);
    }

    #[test]
    fn protocols_share_sizes_across_methods() {
        let p = Protocol::new(Regime::CifarLike, Scale::Quick);
        let a = p.pretrain_cfg(Pipeline::Baseline, None);
        let b = p.pretrain_cfg(Pipeline::CqC, Some(PrecisionSet::range(6, 16).unwrap()));
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.lr, b.lr);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn imagenetlike_protocol_is_larger() {
        let c = Protocol::new(Regime::CifarLike, Scale::Quick);
        let i = Protocol::new(Regime::ImagenetLike, Scale::Quick);
        assert!(i.data.train_size >= c.data.train_size);
        assert!(i.data.num_classes > c.data.num_classes);
    }
}
