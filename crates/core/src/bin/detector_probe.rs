//! Developer utility: per-detector score distributions on clean data vs
//! C&W vs EAD adversarial examples — shows which detector separates what,
//! and where the calibrated thresholds sit.

use adv_eval::config::CliArgs;
use adv_eval::experiment::successful_examples;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::variants::{assemble_cifar_defense, assemble_mnist_defense};
use adv_magnet::{
    Detector, InferenceCache, JsdDetector, ReconstructionDetector, ReconstructionNorm,
};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::train::gather0;
use adv_tensor::stats::{mean, quantile};

fn summarize(name: &str, clean: &[f32], threshold: f32, cw: &[f32], ead: &[f32]) {
    let q = |xs: &[f32], p: f32| quantile(xs, p).unwrap_or(f32::NAN);
    println!(
        "{name:<10} clean mean {:.4} p95 {:.4} | thr {:.4} | CW mean {:.4} (>{:.0}%) | EAD mean {:.4} (>{:.0}%)",
        mean(clean),
        q(clean, 0.95),
        threshold,
        mean(cw),
        100.0 * cw.iter().filter(|&&v| v > threshold).count() as f32 / cw.len().max(1) as f32,
        mean(ead),
        100.0 * ead.iter().filter(|&&v| v > threshold).count() as f32 / ead.len().max(1) as f32,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        println!("\n########## {} ##########", scenario.name());
        let kappa = match scenario {
            Scenario::Mnist => 15.0,
            Scenario::Cifar => 50.0,
        };
        let mut runner = SweepRunner::new(&zoo, scenario)?;
        let labels = runner.attack_set().labels.clone();
        let cw_out = runner.outcome(&AttackKind::Cw, kappa)?;
        let ead_out = runner.outcome(
            &AttackKind::Ead {
                rule: adv_attacks::DecisionRule::ElasticNet,
                beta: 0.1,
            },
            kappa,
        )?;
        let cw_adv = successful_examples(&cw_out, &labels)?.map(|(x, _)| x);
        let ead_adv = successful_examples(&ead_out, &labels)?.map(|(x, _)| x);
        let (Some(cw_adv), Some(ead_adv)) = (cw_adv, ead_adv) else {
            println!("no successful examples at kappa {kappa}");
            continue;
        };
        println!(
            "kappa {kappa}: {} CW examples, {} EAD examples",
            cw_adv.shape().dim(0),
            ead_adv.shape().dim(0)
        );

        let classifier = zoo.classifier(scenario)?;
        let data = zoo.data(scenario);
        let valid = gather0(
            data.valid.images(),
            &(0..data.valid.len()).collect::<Vec<_>>(),
        )?;

        // Build each detector fresh so we can inspect raw scores.
        let mut detectors: Vec<Box<dyn Detector>> = match scenario {
            Scenario::Mnist => {
                let aes = zoo.mnist_autoencoders(
                    zoo.scale().default_filters,
                    ReconstructionLoss::MeanSquaredError,
                )?;
                let _ = assemble_mnist_defense(
                    "probe",
                    &aes,
                    &classifier,
                    &[],
                    &valid,
                    match scenario {
                        Scenario::Mnist => zoo.scale().fpr_mnist,
                        Scenario::Cifar => zoo.scale().fpr_cifar,
                    },
                )?;
                vec![
                    Box::new(ReconstructionDetector::new(
                        aes.ae_one.clone(),
                        ReconstructionNorm::L2,
                    )),
                    Box::new(ReconstructionDetector::new(
                        aes.ae_two.clone(),
                        ReconstructionNorm::L1,
                    )),
                    Box::new(JsdDetector::new(
                        aes.ae_one.clone(),
                        classifier.clone(),
                        10.0,
                    )?),
                    Box::new(JsdDetector::new(
                        aes.ae_one.clone(),
                        classifier.clone(),
                        40.0,
                    )?),
                ]
            }
            Scenario::Cifar => {
                let ae = zoo.cifar_autoencoder(
                    zoo.scale().default_filters,
                    ReconstructionLoss::MeanSquaredError,
                )?;
                let _ = assemble_cifar_defense(
                    "probe",
                    &ae,
                    &classifier,
                    &[10.0, 40.0],
                    &valid,
                    match scenario {
                        Scenario::Mnist => zoo.scale().fpr_mnist,
                        Scenario::Cifar => zoo.scale().fpr_cifar,
                    },
                )?;
                vec![
                    Box::new(ReconstructionDetector::new(
                        ae.clone(),
                        ReconstructionNorm::L1,
                    )),
                    Box::new(ReconstructionDetector::new(
                        ae.clone(),
                        ReconstructionNorm::L2,
                    )),
                    Box::new(JsdDetector::new(ae.clone(), classifier.clone(), 10.0)?),
                    Box::new(JsdDetector::new(ae.clone(), classifier.clone(), 40.0)?),
                ]
            }
        };
        for det in detectors.iter_mut() {
            let threshold = det.calibrate(
                &valid,
                match scenario {
                    Scenario::Mnist => zoo.scale().fpr_mnist,
                    Scenario::Cifar => zoo.scale().fpr_cifar,
                },
            )?;
            let clean_scores = det.scores(&valid, &mut InferenceCache::new())?;
            let cw_scores = det.scores(&cw_adv, &mut InferenceCache::new())?;
            let ead_scores = det.scores(&ead_adv, &mut InferenceCache::new())?;
            summarize(
                &det.name(),
                &clean_scores,
                threshold,
                &cw_scores,
                &ead_scores,
            );
        }
        let _ = Variant::Default;
    }
    Ok(())
}
