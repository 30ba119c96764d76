//! Reproduces **Figure 1**: grids of adversarial examples from C&W and EAD
//! against the default MagNet, written as PGM/PPM files plus ASCII pairs on
//! the terminal, with per-example bypass status.

use adv_eval::config::CliArgs;
use adv_eval::experiment::successful_examples;
use adv_eval::render::{ascii_pair, write_pgm, write_ppm};
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_magnet::{DefensePipeline, DefenseScheme, Verdict};
use adv_nn::train::gather0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);

    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        println!("\n=== Figure 1 ({}) ===", scenario.name());
        let kappa = match scenario {
            Scenario::Mnist => 15.0,
            Scenario::Cifar => 20.0,
        };
        let mut runner = SweepRunner::new(&zoo, scenario)?;
        let defense = zoo.defense(scenario, Variant::Default)?;

        for kind in [
            AttackKind::Cw,
            AttackKind::Ead {
                rule: adv_attacks::DecisionRule::ElasticNet,
                beta: 0.1,
            },
        ] {
            let outcome = runner.outcome(&kind, kappa)?;
            let labels = runner.attack_set().labels.clone();
            let originals = runner.attack_set().images.clone();
            let Some((adv, adv_labels)) = successful_examples(&outcome, &labels)? else {
                println!("{}: no successful examples", kind.label());
                continue;
            };
            let (verdicts, _) = defense.classify_batch(&adv, DefenseScheme::Full)?;

            let show = adv_labels.len().min(4);
            println!("\n--- {} (kappa={kappa}) ---", kind.label());
            for i in 0..show {
                // Match the adversarial example back to its original.
                let orig_idx = outcome
                    .success
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s)
                    .map(|(j, _)| j)
                    .nth(i)
                    .expect("success index exists");
                let orig = gather0(&originals, &[orig_idx])?;
                let one = gather0(&adv, &[i])?;
                let status = match verdicts[i] {
                    Verdict::Detected => "DETECTED by MagNet ✗".to_string(),
                    Verdict::Classified(p) if p == adv_labels[i] => {
                        format!("reformed to correct class {p} ✗")
                    }
                    Verdict::Classified(p) => {
                        format!("BYPASSES MagNet → class {p} ✓")
                    }
                };
                let header = format!(
                    "true label {} | original (left) vs adversarial (right) | {status}",
                    adv_labels[i]
                );
                println!("{}", ascii_pair(&orig, &one, &header)?);

                let base = format!(
                    "{}/fig1/{}_{}_{i}",
                    args.out_dir,
                    scenario.name(),
                    adv_eval::cache::slug(&kind.label())
                );
                match scenario {
                    Scenario::Mnist => {
                        write_pgm(&orig, format!("{base}_orig.pgm"))?;
                        write_pgm(&one, format!("{base}_adv.pgm"))?;
                    }
                    Scenario::Cifar => {
                        write_ppm(&orig, format!("{base}_orig.ppm"))?;
                        write_ppm(&one, format!("{base}_adv.ppm"))?;
                    }
                }
            }
        }
    }
    println!("\nImages written under {}/fig1/", args.out_dir);
    Ok(())
}
