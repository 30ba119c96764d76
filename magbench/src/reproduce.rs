//! The `reproduce` workload: every table and figure of the paper at smoke
//! scale from a fresh model directory, on one thread.
//!
//! The models and attack sweeps every stage shares are built up front
//! through the `Zoo` builders and `SweepRunner::outcome`, so that training,
//! crafting and evaluation each sit under a span of their own; the stages
//! then run in `reproduce_all`'s order and find them cached.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Res;
use adv_eval::figures::{
    defense_comparison, loss_ablation, panels_to_csv_rows, scheme_ablation, scheme_ablation_grid,
    Panel,
};
use adv_eval::plot::write_panels_svg;
use adv_eval::report::write_csv;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::tables::{accuracy_table, arch_tables, best_asr_table, table1};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_eval::Scale;
use adv_nn::loss::ReconstructionLoss;
use std::collections::HashMap;
use std::hint::black_box;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// Dataset syntheses timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 21;

/// Lowest clean accuracy an undefended victim may reach at smoke scale.
/// Seeds 1–40 train victims to at least 0.84 (MNIST) and 0.35 (CIFAR);
/// chance is 0.1.
const CLEAN_FLOOR: [(Scenario, f32); 2] = [(Scenario::Mnist, 0.8), (Scenario::Cifar, 0.3)];

/// The per-stage names of `reproduce_all`, in its order.
pub const STAGES: [&str; 19] = [
    "tables_2_and_5",
    "table3_mnist",
    "table6_cifar",
    "table1_mnist",
    "table1_cifar",
    "table4_mnist",
    "table7_cifar",
    "fig2_mnist",
    "fig3_cifar",
    "fig4_mnist",
    "fig5_cifar",
    "fig6_mnist",
    "fig7_cifar",
    "fig8_mnist",
    "fig9_mnist",
    "fig10_mnist",
    "fig11_cifar",
    "fig12_mnist",
    "fig13_cifar",
];

fn scale(seed: u64) -> Scale {
    let mut s = Scale::smoke();
    s.seed = seed;
    s
}

/// What one stage produced, for the output checks.
#[derive(Default)]
struct StageOutput {
    /// Every ASR and accuracy the stage reported.
    fractions: Vec<f32>,
    /// Clean accuracy of undefended victims, held to [`CLEAN_FLOOR`].
    clean: Vec<(Scenario, f32)>,
    files: Vec<PathBuf>,
}

impl StageOutput {
    fn valid(&self) -> bool {
        let fraction_ok = |x: &f32| x.is_finite() && (0.0..=1.0).contains(x);
        let floor = |s: Scenario| {
            CLEAN_FLOOR
                .iter()
                .find(|(f, _)| *f == s)
                .map_or(1.0, |f| f.1)
        };
        !self.files.is_empty()
            && self
                .files
                .iter()
                .all(|f| std::fs::metadata(f).is_ok_and(|m| m.len() > 0))
            && self.fractions.iter().all(fraction_ok)
            && self.clean.iter().all(|&(s, a)| a >= floor(s))
    }
}

fn panel_stage(out: &Path, stem: &str, panels: &[Panel]) -> Res<StageOutput> {
    let csv = out.join(format!("{stem}.csv"));
    write_csv(
        &csv,
        &["panel", "curve", "kappa", "accuracy"],
        &panels_to_csv_rows(panels),
    )?;
    let name = stem.split('_').next().unwrap_or(stem);
    let svg_dir = out.join("svg");
    let svgs = write_panels_svg(panels, &svg_dir, name)?;
    let mut files = vec![csv];
    files.extend(svgs.into_iter().map(|n| svg_dir.join(n)));
    let fractions = panels
        .iter()
        .flat_map(|p| &p.curves)
        .flat_map(|c| &c.points)
        .map(|p| p.accuracy)
        .collect();
    Ok(StageOutput {
        fractions,
        files,
        ..StageOutput::default()
    })
}

/// Runs one stage by name, writing its outputs under `out`.
fn run_stage(zoo: &Zoo, out: &Path, name: &str) -> Res<StageOutput> {
    let scenario = if name.ends_with("_cifar") {
        Scenario::Cifar
    } else {
        Scenario::Mnist
    };
    let figure = name.split('_').next().unwrap_or(name);
    match figure {
        "tables" => {
            let path = out.join(format!("{name}.txt"));
            std::fs::write(&path, arch_tables(zoo.scale().robust_filters))?;
            Ok(StageOutput {
                files: vec![path],
                ..StageOutput::default()
            })
        }
        "table3" | "table6" => {
            let rows = accuracy_table(zoo, scenario)?;
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.variant.label().into(),
                        r.without.to_string(),
                        r.with.to_string(),
                    ]
                })
                .collect();
            let path = out.join(format!("{name}.csv"));
            write_csv(&path, &["variant", "without_magnet", "with_magnet"], &csv)?;
            Ok(StageOutput {
                fractions: rows.iter().flat_map(|r| [r.without, r.with]).collect(),
                clean: rows.iter().map(|r| (scenario, r.without)).collect(),
                files: vec![path],
            })
        }
        "table1" => {
            let rows = table1(zoo, scenario)?;
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let opt = |v: Option<f32>| v.map_or("-".into(), |v| v.to_string());
                    vec![
                        r.attack.clone(),
                        opt(r.beta),
                        r.kappa.to_string(),
                        r.asr.to_string(),
                        opt(r.l1),
                        opt(r.l2),
                    ]
                })
                .collect();
            let path = out.join(format!("{name}.csv"));
            write_csv(
                &path,
                &["attack", "beta", "kappa", "asr", "mean_l1", "mean_l2"],
                &csv,
            )?;
            let distortions_finite = rows
                .iter()
                .flat_map(|r| [r.l1, r.l2])
                .flatten()
                .all(f32::is_finite);
            let mut fractions: Vec<f32> = rows.iter().map(|r| r.asr).collect();
            if !distortions_finite {
                fractions.push(f32::NAN);
            }
            Ok(StageOutput {
                fractions,
                files: vec![path],
                ..StageOutput::default()
            })
        }
        "table4" | "table7" => {
            let rows = best_asr_table(zoo, scenario)?;
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let mut row = vec![r.rule.label().to_string(), r.beta.to_string()];
                    row.extend(r.asr.iter().map(f32::to_string));
                    row
                })
                .collect();
            let path = out.join(format!("{name}.csv"));
            let mut header = vec!["rule".to_string(), "beta".to_string()];
            header.extend(
                Variant::for_scenario(scenario)
                    .iter()
                    .map(|v| v.label().to_string()),
            );
            let header: Vec<&str> = header.iter().map(String::as_str).collect();
            write_csv(&path, &header, &csv)?;
            Ok(StageOutput {
                fractions: rows.iter().flat_map(|r| r.asr.iter().copied()).collect(),
                files: vec![path],
                ..StageOutput::default()
            })
        }
        "fig2" | "fig3" => panel_stage(out, name, &defense_comparison(zoo, scenario)?),
        "fig4" | "fig5" => panel_stage(out, name, &scheme_ablation(zoo, scenario)?),
        "fig6" | "fig7" => panel_stage(
            out,
            name,
            &scheme_ablation_grid(zoo, scenario, Variant::Default)?,
        ),
        "fig8" => panel_stage(
            out,
            name,
            &scheme_ablation_grid(zoo, scenario, Variant::DefaultJsd)?,
        ),
        "fig9" | "fig11" => panel_stage(
            out,
            name,
            &scheme_ablation_grid(zoo, scenario, Variant::Robust)?,
        ),
        "fig10" => panel_stage(
            out,
            name,
            &scheme_ablation_grid(zoo, scenario, Variant::RobustJsd)?,
        ),
        "fig12" | "fig13" => panel_stage(out, name, &loss_ablation(zoo, scenario)?),
        other => Err(format!("unknown stage {other}").into()),
    }
}

/// Trains every network the stages use: both victims and the MNIST pairs
/// and CIFAR auto-encoders at each width and loss. Returns the count.
fn train_all(zoo: &Zoo, tracer: &Tracer, parent: u64) -> Res<usize> {
    let s = *zoo.scale();
    let mse = ReconstructionLoss::MeanSquaredError;
    let mae = ReconstructionLoss::MeanAbsoluteError;
    let mut models = 0;
    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        tracer.span("train.classifier", parent, 0, |_| zoo.classifier(scenario))?;
        models += 1;
    }
    for (filters, loss) in [
        (s.default_filters, mse),
        (s.robust_filters, mse),
        (s.default_filters, mae),
    ] {
        tracer.span("train.mnist_autoencoders", parent, 0, |_| {
            zoo.mnist_autoencoders(filters, loss)
        })?;
        tracer.span("train.cifar_autoencoder", parent, 0, |_| {
            zoo.cifar_autoencoder(filters, loss)
        })?;
        models += 3;
    }
    Ok(models)
}

/// Every attack sweep point the stages read: C&W and the EAD grid at each
/// κ, per scenario.
fn sweep_points(zoo: &Zoo, scenario: Scenario) -> Vec<(AttackKind, f32)> {
    let kappas = match scenario {
        Scenario::Mnist => zoo.scale().mnist_kappas(),
        Scenario::Cifar => zoo.scale().cifar_kappas(),
    };
    let mut kinds = vec![AttackKind::Cw];
    kinds.extend(AttackKind::ead_grid());
    kinds
        .iter()
        .flat_map(|k| kappas.iter().map(move |&kappa| (*k, kappa)))
        .collect()
}

/// The identity of a cache file: inode, modification time and length. A
/// cache miss rewrites the file through a rename, which changes it.
type FileId = (u64, Option<SystemTime>, u64);

/// Every cached attack outcome under `dir`, by path.
fn cached_outcomes(dir: &Path) -> HashMap<PathBuf, FileId> {
    let Ok(entries) = std::fs::read_dir(dir.join("attacks")) else {
        return HashMap::new();
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "atk"))
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            Some((e.path(), (m.ino(), m.modified().ok(), m.len())))
        })
        .collect()
}

struct AttackCounts {
    examples: usize,
    cache_hits: usize,
    /// Read-backs that rewrote their cache file or returned other examples.
    failed_reads: usize,
}

/// Crafts every sweep point, then reads each back through the cache. A
/// read-back is a hit when it leaves every cache file untouched and returns
/// the crafted examples; anything else is a failed read.
fn craft_all(zoo: &Zoo, tracer: &Tracer, parent: u64) -> Res<AttackCounts> {
    let mut counts = AttackCounts {
        examples: 0,
        cache_hits: 0,
        failed_reads: 0,
    };
    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        let mut runner = SweepRunner::new(zoo, scenario)?;
        let set_size = runner.attack_set().labels.len();
        let points = sweep_points(zoo, scenario);
        let mut crafted = Vec::with_capacity(points.len());
        for (kind, kappa) in &points {
            crafted.push(tracer.span("attack.outcome", parent, 0, |_| {
                runner.outcome(kind, *kappa)
            })?);
            counts.examples += set_size;
        }
        for ((kind, kappa), first) in points.iter().zip(&crafted) {
            let before = cached_outcomes(zoo.dir());
            let again =
                tracer.span("attack.cached", parent, 0, |_| runner.outcome(kind, *kappa))?;
            let untouched = cached_outcomes(zoo.dir()) == before;
            if untouched
                && again.success == first.success
                && again.adversarial.as_slice() == first.adversarial.as_slice()
            {
                counts.cache_hits += 1;
            } else {
                eprintln!(
                    "reproduce: {scenario:?} {kind:?} kappa {kappa}: cache read-back {}",
                    if untouched {
                        "returned other examples"
                    } else {
                        "missed"
                    }
                );
                counts.failed_reads += 1;
            }
        }
    }
    Ok(counts)
}

struct Pass {
    wall_s: f64,
    models: usize,
    attacks: AttackCounts,
}

/// One full reproduction in a fresh directory under `dir`.
fn reproduce(seed: u64, dir: &Path, tracer: &Tracer, outcome: &mut Outcome) -> Res<Pass> {
    std::fs::create_dir_all(dir)?;
    let zoo = Zoo::new(dir.join("models"), scale(seed));
    let out = dir.join("results");
    std::fs::create_dir_all(&out)?;
    let started = Instant::now();
    let (models, attacks) = tracer.span("reproduce", 0, 0, |root| -> Res<_> {
        tracer.span("data", root, 0, |_| {
            black_box(zoo.data(Scenario::Mnist));
            black_box(zoo.data(Scenario::Cifar));
        });
        let models = tracer.span("train", root, 0, |id| train_all(&zoo, tracer, id))?;
        let attacks = tracer.span("attack", root, 0, |id| craft_all(&zoo, tracer, id))?;
        outcome.check(attacks.failed_reads == 0);
        tracer.span("eval", root, 0, |id| {
            for name in STAGES {
                let result = tracer.span(&format!("stage.{name}"), id, 0, |_| {
                    run_stage(&zoo, &out, name)
                });
                let (ok, detail) = match result {
                    Ok(o) => (
                        o.valid(),
                        format!("fractions {:?}, clean accuracy {:?}", o.fractions, o.clean),
                    ),
                    Err(e) => (false, e.to_string()),
                };
                if !ok {
                    eprintln!("reproduce: stage {name} wrote missing or invalid output ({detail})");
                }
                outcome.check(ok);
            }
        });
        Ok((models, attacks))
    })?;
    Ok(Pass {
        wall_s: started.elapsed().as_secs_f64(),
        models,
        attacks,
    })
}

pub fn run(seed: u64, dir: &Path, tracer: &Tracer) -> Res<Outcome> {
    let mut outcome = Outcome::default();
    let zoo = Zoo::new(dir, scale(seed));
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(zoo.data(Scenario::Mnist));
            black_box(zoo.data(Scenario::Cifar));
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let plain = reproduce(seed, &dir.join("plain"), &Tracer::new(false), &mut outcome)?;
    let e2e = &mut outcome.end_to_end;
    e2e.push("setup_s", median(&setup), "s");
    e2e.push("wall_s", plain.wall_s, "s");
    // One reproduction yields 19 results; `rps` and `latency_ms` restate
    // its wall time per result so that this workload carries every metric.
    let stages = STAGES.len() as f64;
    e2e.push("rps", stages / plain.wall_s, "1/s");
    e2e.push("latency_ms", plain.wall_s / stages * 1e3, "ms");
    if !tracer.on() {
        return Ok(outcome);
    }

    let traced = reproduce(seed, &dir.join("traced"), tracer, &mut outcome)?;
    let spans = tracer.spans();
    let layer = &mut outcome.per_layer;
    let attack_s = trace::total_s(&spans, "attack");
    layer.push("data.s", trace::total_s(&spans, "data"), "s");
    layer.push("train.s", trace::total_s(&spans, "train"), "s");
    layer.push("train.models", traced.models as f64, "count");
    layer.push("attack.s", attack_s, "s");
    layer.push("attack.examples", traced.attacks.examples as f64, "count");
    layer.push(
        "attack.examples_per_s",
        traced.attacks.examples as f64 / attack_s,
        "1/s",
    );
    layer.push(
        "attack.cache_hits",
        traced.attacks.cache_hits as f64,
        "count",
    );
    layer.push("eval.s", trace::total_s(&spans, "eval"), "s");
    for name in STAGES {
        layer.push(
            format!("stage.{name}_s"),
            trace::total_s(&spans, &format!("stage.{name}")),
            "s",
        );
    }
    let root = spans
        .iter()
        .find(|s| s.name == "reproduce")
        .ok_or("no reproduce span")?;
    let uncovered = trace::self_times(&spans)[&root.id] as f64;
    layer.push(
        "trace.coverage_pct",
        100.0 * (1.0 - uncovered / root.duration_ns() as f64),
        "%",
    );
    layer.push(
        "trace.overhead_pct",
        100.0 * (traced.wall_s / plain.wall_s - 1.0),
        "%",
    );
    Ok(outcome)
}
