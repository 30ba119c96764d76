//! A fault-wrapped defense pipeline.
//!
//! [`FaultyDefense`] decorates a shared [`MagnetDefense`] with per-stage
//! injection points so chaos tests can fail exactly one stage of the
//! pipeline: detector scoring ([`SITE_DETECT`]), the reformer
//! ([`SITE_REFORM`]), or the protected classifier ([`SITE_CLASSIFY`]).
//! It holds no stage logic of its own: it runs the defense's one pass,
//! [`MagnetDefense::pass`], with the injector as the pass's per-stage hook.
//! The injector is consulted once before each stage the scheme runs, so
//! with a no-op injector the verdicts and scores equal the unwrapped
//! defense's (pinned by this module's tests).

use crate::FaultInjector;
use adv_magnet::{DefensePipeline, DefenseScheme, MagnetDefense, MagnetError, PassReport, Verdict};
use adv_tensor::Tensor;
use std::sync::Arc;

/// Injection site evaluated before detector scoring.
pub const SITE_DETECT: &str = adv_magnet::STAGE_DETECT;
/// Injection site evaluated before the reformer pass.
pub const SITE_REFORM: &str = adv_magnet::STAGE_REFORM;
/// Injection site evaluated before the classifier forward pass.
pub const SITE_CLASSIFY: &str = adv_magnet::STAGE_CLASSIFY;

/// [`MagnetDefense`] with deterministic faults between its stages.
#[derive(Debug)]
pub struct FaultyDefense {
    inner: Arc<MagnetDefense>,
    injector: Arc<FaultInjector>,
}

impl FaultyDefense {
    /// Wraps `inner` so every pipeline stage consults `injector` first.
    pub fn new(inner: Arc<MagnetDefense>, injector: Arc<FaultInjector>) -> FaultyDefense {
        FaultyDefense { inner, injector }
    }

    /// The wrapped defense.
    pub fn inner(&self) -> &Arc<MagnetDefense> {
        &self.inner
    }

    /// The injector driving this wrapper's stages.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Applies the injector at `site`, mapping injected errors into the
    /// defense's error type (panics and delays pass through unchanged).
    fn inject(&self, site: &'static str) -> adv_magnet::Result<()> {
        self.injector.apply(site).map_err(|e| MagnetError::Stage {
            stage: site.to_string(),
            message: e.to_string(),
        })
    }
}

impl DefensePipeline for FaultyDefense {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, PassReport)> {
        self.inner.pass(x, scheme, &mut |site| self.inject(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultError, FaultPlan, SiteFaults};
    use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
    use adv_magnet::{
        Autoencoder, Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm,
    };
    use adv_nn::loss::ReconstructionLoss;
    use adv_nn::Sequential;
    use adv_tensor::Shape;

    const SITES: [&str; 3] = [SITE_DETECT, SITE_REFORM, SITE_CLASSIFY];

    /// A calibrated toy defense: one L2 reconstruction detector, or (with
    /// `jsd`) the D+JSD pattern that adds two JSD detectors over the same
    /// auto-encoder and classifier.
    fn defense(jsd: bool) -> Arc<MagnetDefense> {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap();
        let mut dets: Vec<Box<dyn Detector>> = vec![Box::new(ReconstructionDetector::new(
            ae.clone(),
            ReconstructionNorm::L2,
        ))];
        if jsd {
            for t in [10.0, 40.0] {
                dets.push(Box::new(
                    JsdDetector::new(ae.clone(), classifier.clone(), t).unwrap(),
                ));
            }
        }
        let mut d = MagnetDefense::new("chaos-toy", dets, ae, classifier);
        d.calibrate_detectors(&batch(64), 0.05).unwrap();
        Arc::new(d)
    }

    fn toy_defense() -> Arc<MagnetDefense> {
        defense(false)
    }

    fn batch(n: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 11) as f32 / 11.0)
    }

    /// `true` when `scheme` runs the stage behind injection site `site`.
    fn runs(scheme: DefenseScheme, site: &str) -> bool {
        match site {
            SITE_DETECT => matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full),
            SITE_REFORM => matches!(scheme, DefenseScheme::ReformerOnly | DefenseScheme::Full),
            _ => true,
        }
    }

    #[test]
    fn noop_injector_equals_unwrapped_defense() {
        for jsd in [false, true] {
            let defense = defense(jsd);
            let faulty = FaultyDefense::new(defense.clone(), Arc::new(FaultInjector::disabled()));
            let x = batch(10);
            for scheme in DefenseScheme::ALL {
                let (want, want_report) = defense.classify_batch(&x, scheme).unwrap();
                let (got, report) = faulty.classify_batch(&x, scheme).unwrap();
                assert_eq!(got, want, "jsd={jsd} {scheme:?}");
                assert_eq!(report.scores, want_report.scores, "jsd={jsd} {scheme:?}");
            }
        }
    }

    #[test]
    fn each_site_is_consulted_once_per_batch_that_runs_its_stage() {
        // Seeded chaos schedules replay only if every site draws exactly as
        // often as before: once per batch whose scheme runs the stage.
        let defense = toy_defense();
        for site in SITES {
            let plan = FaultPlan::new(3).with(SiteFaults::at(site));
            let injector = Arc::new(FaultInjector::new(plan).unwrap());
            let faulty = FaultyDefense::new(defense.clone(), injector.clone());
            let mut expected = 0;
            for scheme in DefenseScheme::ALL {
                faulty.classify_batch(&batch(3), scheme).unwrap();
                expected += u64::from(runs(scheme, site));
                assert_eq!(injector.stats().decisions, expected, "{site} {scheme:?}");
            }
        }
    }

    #[test]
    fn injected_error_fails_exactly_the_schemes_that_run_the_stage() {
        let defense = toy_defense();
        for site in SITES {
            let plan = FaultPlan::new(3).with(SiteFaults::at(site).errors(1.0));
            let faulty =
                FaultyDefense::new(defense.clone(), Arc::new(FaultInjector::new(plan).unwrap()));
            let x = batch(4);
            for scheme in DefenseScheme::ALL {
                match faulty.classify_batch(&x, scheme) {
                    Err(MagnetError::Stage { stage, .. }) => {
                        assert!(runs(scheme, site), "{site} fired under {scheme:?}");
                        assert_eq!(stage, site);
                    }
                    Err(other) => panic!("expected Stage error, got {other}"),
                    Ok((got, _)) => {
                        assert!(!runs(scheme, site), "{site} did not fire under {scheme:?}");
                        assert_eq!(got, defense.classify_batch(&x, scheme).unwrap().0);
                    }
                }
            }
        }
    }

    #[test]
    fn injected_panic_carries_the_marker() {
        let defense = toy_defense();
        let plan = FaultPlan::new(5).with(SiteFaults::at(SITE_CLASSIFY).panics(1.0).limit(1));
        let faulty = FaultyDefense::new(defense, Arc::new(FaultInjector::new(plan).unwrap()));
        let x = batch(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.classify_batch(&x, DefenseScheme::None)
        }));
        let payload = caught.unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.starts_with(crate::PANIC_MARKER), "{text}");
        // The cap is spent: the next batch goes through cleanly.
        faulty.classify_batch(&x, DefenseScheme::None).unwrap();
    }

    #[test]
    fn injected_error_display_names_site_and_hit() {
        let e = FaultError::Injected {
            site: "magnet/reform".into(),
            hit: 7,
        };
        assert!(e.to_string().contains("magnet/reform"));
        assert!(e.to_string().contains('7'));
    }
}
