//! Set-up of the `serve` and `wire` workloads: a smoke-scale MNIST victim
//! and auto-encoders trained in a fresh directory, the D+JSD defense
//! calibrated on them, and the request corpus.
//!
//! The corpus is the C&W-L2 and EAD-L1 (κ = 0) adversarial examples plus
//! the clean images they were crafted from. Each sample's expected verdict
//! is what `DefensePipeline::classify_batch` gives for it alone; every
//! served verdict is checked against it.
//!
//! The served model is trained from [`MODEL_SEED`], not from `--seed`,
//! which drives the request stream instead (sample order and arrival
//! times). Throughput depends on the trained weights: on repeated runs the
//! models of seeds 46 and 47 served 800–820 and 925–1050 saturated
//! requests per second. With a model per seed, `rps` would measure which
//! model a seed happened to train rather than the program.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Res;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_eval::Scale;
use adv_magnet::{DefensePipeline, DefenseScheme, MagnetDefense, Verdict};
use adv_nn::loss::ReconstructionLoss;
use adv_tensor::Tensor;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Images attacked per attack; the smoke test pool caps the usable count.
const PER_ATTACK: usize = 16;

/// Seed of the served model's data, training and corpus.
pub const MODEL_SEED: u64 = 1;

/// Batches timed per direct pipeline measurement.
const LAYER_REPEATS: usize = 12;

pub struct Corpus {
    pub defense: Arc<MagnetDefense>,
    pub inputs: Vec<Tensor>,
    pub expected: Vec<Verdict>,
    /// Adversarial examples crafted for the corpus.
    pub crafted: usize,
}

impl Corpus {
    pub fn pipeline(&self) -> Arc<dyn DefensePipeline> {
        self.defense.clone()
    }

    /// A stacked batch of `n` corpus samples starting at `from`, wrapping.
    pub fn batch(&self, from: usize, n: usize) -> Res<Tensor> {
        let items: Vec<Tensor> = (0..n)
            .map(|i| self.inputs[(from + i) % self.inputs.len()].clone())
            .collect();
        Ok(Tensor::stack(&items)?)
    }
}

/// Trains, calibrates and crafts in `dir`, which must not hold models yet.
pub fn build(dir: &Path, tracer: &Tracer, parent: u64) -> Res<Corpus> {
    let mut scale = Scale::smoke();
    scale.seed = MODEL_SEED;
    scale.attack_count = PER_ATTACK;
    let zoo = Zoo::new(dir, scale);
    tracer.span("data", parent, 0, |_| black_box(zoo.data(Scenario::Mnist)));
    tracer.span("train", parent, 0, |_| -> Res<()> {
        zoo.classifier(Scenario::Mnist)?;
        zoo.mnist_autoencoders(scale.default_filters, ReconstructionLoss::MeanSquaredError)?;
        Ok(())
    })?;
    let defense = tracer.span("calibrate", parent, 0, |_| {
        zoo.defense(Scenario::Mnist, Variant::DefaultJsd)
    })?;
    let (inputs, crafted) = tracer.span("attack", parent, 0, |_| -> Res<_> {
        let mut runner = SweepRunner::new(&zoo, Scenario::Mnist)?;
        let clean = runner.attack_set().images.clone();
        let n = runner.attack_set().labels.len();
        let mut stacks = vec![clean];
        for kind in AttackKind::figure_trio().into_iter().take(2) {
            stacks.push(runner.outcome(&kind, 0.0)?.adversarial);
        }
        let mut inputs = Vec::with_capacity(n * stacks.len());
        for stack in &stacks {
            for i in 0..n {
                inputs.push(stack.index_axis0(i)?);
            }
        }
        Ok((inputs, n * (stacks.len() - 1)))
    })?;
    let defense = Arc::new(defense);
    let pipeline: &dyn DefensePipeline = &*defense;
    let expected = inputs
        .iter()
        .map(|x| {
            let one = Tensor::stack(std::slice::from_ref(x))?;
            let (verdicts, _) = tracer.span("magnet.b1", parent, 0, |_| {
                pipeline.classify_batch(&one, DefenseScheme::Full)
            })?;
            verdicts
                .first()
                .copied()
                .ok_or_else(|| "empty verdict batch".into())
        })
        .collect::<Res<Vec<Verdict>>>()?;
    Ok(Corpus {
        defense,
        inputs,
        expected,
        crafted,
    })
}

/// Times the defense directly on the corpus: the fused pipeline at batch 1
/// and 32, and the detector and reformer stages alone at batch 32.
/// Returns `(name, milliseconds)` pairs.
pub fn layer_timings(corpus: &Corpus, tracer: &Tracer) -> Res<Vec<(&'static str, f64)>> {
    let pipeline = corpus.pipeline();
    let b1: Vec<f64> = trace::durations_s(&tracer.spans(), "magnet.b1");
    let mut b32 = Vec::new();
    let mut detect = Vec::new();
    let mut reform = Vec::new();
    for r in 0..LAYER_REPEATS {
        let x = corpus.batch(r * 32, 32)?;
        let t0 = Instant::now();
        black_box(pipeline.classify_batch(&x, DefenseScheme::Full)?);
        b32.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(corpus.defense.detect(&x)?);
        detect.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(corpus.defense.reform(&x)?);
        reform.push(t0.elapsed().as_secs_f64());
    }
    Ok(vec![
        ("magnet.pipeline_b1_ms", median(&b1) * 1e3),
        ("magnet.pipeline_b32_ms", median(&b32) * 1e3),
        ("magnet.detect_b32_ms", median(&detect) * 1e3),
        ("magnet.reform_b32_ms", median(&reform) * 1e3),
    ])
}
