use crate::autoencoder::Autoencoder;
use crate::detector::{record_scores, Detector};
use crate::fused::InferenceCache;
use crate::{MagnetError, Result};
use adv_nn::Sequential;
use adv_obs::Span;
use adv_profile::StageScope;
use adv_tensor::Tensor;
use std::time::Duration;

/// Records pipeline verdict counters when metrics are enabled. The
/// instrumentation only bumps atomics; verdicts are never altered.
fn record_verdicts(verdicts: &[Verdict]) {
    if !adv_obs::metrics_enabled() {
        return;
    }
    let r = adv_obs::global();
    r.counter("magnet.verdicts").add(verdicts.len() as u64);
    let detected = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Detected))
        .count();
    r.counter("magnet.detected").add(detected as u64);
}

/// Which parts of MagNet are active — the four defense schemes compared in
/// the paper's supplementary figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseScheme {
    /// Plain DNN, no defense.
    None,
    /// Detectors only (undetected inputs go to the DNN unreformed).
    DetectorOnly,
    /// Reformer only (every input is auto-encoded before the DNN).
    ReformerOnly,
    /// Detectors, then reformer — full MagNet.
    Full,
}

impl DefenseScheme {
    /// All four schemes, in the order the paper's plots use.
    pub const ALL: [DefenseScheme; 4] = [
        DefenseScheme::None,
        DefenseScheme::DetectorOnly,
        DefenseScheme::ReformerOnly,
        DefenseScheme::Full,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            DefenseScheme::None => "No defense",
            DefenseScheme::DetectorOnly => "With detector",
            DefenseScheme::ReformerOnly => "With reformer",
            DefenseScheme::Full => "With detector & reformer",
        }
    }

    /// The next-cheaper scheme the serving engine degrades to when a stage
    /// keeps failing: drop the reformer first (`Full → DetectorOnly`), then
    /// the detectors (`DetectorOnly → None`, i.e. classifier-only).
    /// [`DefenseScheme::None`] is the floor and maps to itself.
    pub fn fallback(self) -> DefenseScheme {
        match self {
            DefenseScheme::Full => DefenseScheme::DetectorOnly,
            DefenseScheme::DetectorOnly | DefenseScheme::ReformerOnly => DefenseScheme::None,
            DefenseScheme::None => DefenseScheme::None,
        }
    }
}

/// Per-input outcome of the defense pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A detector flagged the input as adversarial.
    Detected,
    /// The input passed the detectors and was classified (possibly after
    /// reforming) as this class.
    Classified(usize),
}

impl Verdict {
    /// `true` when this verdict defends against an adversarial input with
    /// ground-truth label `truth`: either it was detected, or it was
    /// classified correctly anyway.
    pub fn defends(self, truth: usize) -> bool {
        match self {
            Verdict::Detected => true,
            Verdict::Classified(pred) => pred == truth,
        }
    }
}

/// Name of the detector stage: its trace span, its profile scope and the
/// argument [`MagnetDefense::pass`] hands its hook before scoring.
pub const STAGE_DETECT: &str = "magnet/detect";
/// Name of the reformer stage (see [`STAGE_DETECT`]).
pub const STAGE_REFORM: &str = "magnet/reform";
/// Name of the classifier stage (see [`STAGE_DETECT`]).
pub const STAGE_CLASSIFY: &str = "magnet/classify";

/// Wall-clock time spent in each stage of one [`MagnetDefense::pass`].
/// Stages skipped by the scheme report [`Duration::ZERO`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Detector scoring (all deployed detectors, OR-combined).
    pub detect: Duration,
    /// Reformer auto-encoder pass.
    pub reform: Duration,
    /// Classifier forward pass (including argmax).
    pub classify: Duration,
}

impl StageTimings {
    /// Total time across the three stages.
    pub fn total(&self) -> Duration {
        self.detect + self.reform + self.classify
    }
}

/// What one pass reports besides its verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    /// Wall-clock time per stage.
    pub timings: StageTimings,
    /// Each deployed detector's per-item anomaly scores (outer index =
    /// detector, in deployment order; empty under schemes that skip the
    /// detectors). Telemetry recording rides on these.
    pub scores: Vec<Vec<f32>>,
}

/// Object-safe view of a batch classification pipeline.
///
/// The serving engine (`adv-serve`) drives whatever implements this trait —
/// normally [`MagnetDefense`] itself, but also wrappers that decorate the
/// pipeline (the chaos crate's `FaultyDefense` injects faults between
/// stages). Implementations must be safe to share across worker threads.
pub trait DefensePipeline: Send + Sync + std::fmt::Debug {
    /// The pipeline's display name.
    fn name(&self) -> &str;

    /// Classifies a stacked batch (`[N, C, H, W]`) under `scheme`, returning
    /// one verdict per input plus the pass's timings and detector scores.
    ///
    /// # Errors
    ///
    /// Propagates detector, reformer, and classifier errors.
    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, PassReport)>;
}

impl DefensePipeline for MagnetDefense {
    fn name(&self) -> &str {
        &self.name
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, PassReport)> {
        self.pass(x, scheme, &mut |_| Ok(()))
    }
}

/// Runs one stage of a pass: the hook first, then `body` inside the stage's
/// trace span and profile scope. On success the stage's wall-clock time
/// (hook included) goes to `elapsed`.
fn stage<T>(
    name: &'static str,
    hook: &mut dyn FnMut(&'static str) -> Result<()>,
    elapsed: &mut Duration,
    body: impl FnOnce() -> Result<T>,
) -> Result<T> {
    // lint-ok(gated-clocks): StageTimings is part of the pipeline API; the
    // clock read is the feature.
    let t0 = std::time::Instant::now();
    hook(name)?;
    let _span = Span::enter(name);
    let _stage = StageScope::enter(name);
    let out = body()?;
    *elapsed = t0.elapsed();
    Ok(out)
}

/// The assembled MagNet defense: a set of calibrated detectors, a reformer
/// auto-encoder, and the protected classifier.
///
/// The evaluation convention follows the paper: *classification accuracy* on
/// a batch of (possibly adversarial) inputs is the fraction that is either
/// detected or correctly classified after reforming; the *attack success
/// rate* is its complement.
#[derive(Debug)]
pub struct MagnetDefense {
    detectors: Vec<Box<dyn Detector>>,
    reformer: Autoencoder,
    classifier: Sequential,
    name: String,
}

impl MagnetDefense {
    /// Assembles a defense.
    ///
    /// Detectors must already be calibrated (or be calibrated afterwards via
    /// [`calibrate_detectors`](Self::calibrate_detectors)).
    pub fn new(
        name: impl Into<String>,
        detectors: Vec<Box<dyn Detector>>,
        reformer: Autoencoder,
        classifier: Sequential,
    ) -> Self {
        MagnetDefense {
            detectors,
            reformer,
            classifier,
            name: name.into(),
        }
    }

    /// The defense variant's display name (e.g. "default", "D+256+JSD").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deployed detectors.
    pub fn num_detectors(&self) -> usize {
        self.detectors.len()
    }

    /// Calibrates every detector to `fpr` on clean validation data.
    ///
    /// # Errors
    ///
    /// Propagates detector scoring/calibration errors.
    pub fn calibrate_detectors(&mut self, clean: &Tensor, fpr: f32) -> Result<Vec<f32>> {
        self.detectors
            .iter_mut()
            .map(|d| d.calibrate(clean, fpr))
            .collect()
    }

    /// OR-combined detector flags for a batch.
    ///
    /// # Errors
    ///
    /// Returns an uncalibrated-detector error or scoring errors.
    pub fn detect(&self, x: &Tensor) -> Result<Vec<bool>> {
        let mut combined = vec![false; x.shape().dim(0)];
        for (_, flags) in self.detect_breakdown(x)? {
            for (c, f) in combined.iter_mut().zip(flags) {
                *c |= f;
            }
        }
        Ok(combined)
    }

    /// Per-detector flags for a batch, labelled by detector name — the
    /// breakdown behind [`detect`](Self::detect)'s OR. Useful for attributing
    /// which detector family catches which attack.
    ///
    /// # Errors
    ///
    /// Returns an uncalibrated-detector error or scoring errors.
    pub fn detect_breakdown(&self, x: &Tensor) -> Result<Vec<(String, Vec<bool>)>> {
        let mut cache = InferenceCache::new();
        self.detectors
            .iter()
            .map(|d| {
                let (scores, threshold) = scored(d.as_ref(), x, &mut cache)?;
                Ok((d.name(), scores.iter().map(|&s| s > threshold).collect()))
            })
            .collect()
    }

    /// Reforms a batch through the reformer auto-encoder.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the auto-encoder.
    pub fn reform(&self, x: &Tensor) -> Result<Tensor> {
        self.reformer.reconstruct(x)
    }

    /// The defense pass: detectors, then reformer, then classifier, as far
    /// as `scheme` runs them. Returns one verdict per input plus the stage
    /// timings and every detector's scores.
    ///
    /// `hook` is called once before each stage that runs, with the stage's
    /// name ([`STAGE_DETECT`], [`STAGE_REFORM`], [`STAGE_CLASSIFY`]); an
    /// error from it fails the pass. Fault-injecting wrappers use it;
    /// everyone else calls [`DefensePipeline::classify_batch`], which passes
    /// a no-op.
    ///
    /// The pass runs through an [`InferenceCache`], so sub-computations
    /// shared between detectors, reformer, and classifier execute once per
    /// batch instead of once per consumer. The cache only reuses a result
    /// when model parameters and input tensor are bit-identical, so the
    /// verdicts and scores match a pass in which every consumer reruns its
    /// own networks (the tests keep such a reference). The saving comes from
    /// MagNet's own redundancy: the paper's assemblies reuse one
    /// auto-encoder as both detector and reformer, and JSD detectors re-run
    /// the protected classifier.
    ///
    /// # Errors
    ///
    /// Propagates hook, detector, reformer and classifier errors.
    pub fn pass(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
        hook: &mut dyn FnMut(&'static str) -> Result<()>,
    ) -> Result<(Vec<Verdict>, PassReport)> {
        let mut report = PassReport::default();
        let mut cache = InferenceCache::new();
        let timings = &mut report.timings;

        let mut detected = vec![false; x.shape().dim(0)];
        if matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full) {
            stage(STAGE_DETECT, hook, &mut timings.detect, || {
                for det in &self.detectors {
                    let (scores, threshold) = scored(det.as_ref(), x, &mut cache)?;
                    for (d, s) in detected.iter_mut().zip(&scores) {
                        *d |= *s > threshold;
                    }
                    report.scores.push(scores);
                }
                Ok(())
            })?;
        }

        let input = match scheme {
            DefenseScheme::ReformerOnly | DefenseScheme::Full => {
                stage(STAGE_REFORM, hook, &mut timings.reform, || {
                    cache.reconstruction(&self.reformer, x)
                })?
            }
            _ => x.clone(),
        };

        let preds = stage(STAGE_CLASSIFY, hook, &mut timings.classify, || {
            Ok(cache.logits(&self.classifier, &input)?.argmax_rows()?)
        })?;

        let verdicts: Vec<Verdict> = detected
            .into_iter()
            .zip(preds)
            .map(|(d, p)| {
                if d {
                    Verdict::Detected
                } else {
                    Verdict::Classified(p)
                }
            })
            .collect();
        record_verdicts(&verdicts);
        Ok((verdicts, report))
    }

    /// The paper's *classification accuracy* of the defense on a batch with
    /// ground-truth labels: fraction detected or correctly classified.
    ///
    /// # Errors
    ///
    /// Returns [`MagnetError::InvalidArgument`] unless there is exactly one
    /// label per batch item, and propagates pipeline errors.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize], scheme: DefenseScheme) -> Result<f32> {
        let n = x.shape().dim(0);
        if labels.len() != n {
            return Err(MagnetError::InvalidArgument(format!(
                "{} labels for a batch of {n}",
                labels.len()
            )));
        }
        let (verdicts, _) = self.classify_batch(x, scheme)?;
        if verdicts.is_empty() {
            return Ok(0.0);
        }
        let defended = verdicts
            .iter()
            .zip(labels)
            .filter(|(v, &t)| v.defends(t))
            .count();
        Ok(defended as f32 / verdicts.len() as f32)
    }

    /// Mutable access to the protected classifier (for gray-box experiments).
    pub fn classifier_mut(&mut self) -> &mut Sequential {
        &mut self.classifier
    }

    /// Mutable access to the reformer (for gray-box experiments).
    pub fn reformer_mut(&mut self) -> &mut Autoencoder {
        &mut self.reformer
    }
}

/// `det`'s scores for `x` (through `cache`) and its calibrated threshold;
/// an item is flagged when its score is strictly above the threshold.
fn scored<'m>(
    det: &'m dyn Detector,
    x: &Tensor,
    cache: &mut InferenceCache<'m>,
) -> Result<(Vec<f32>, f32)> {
    let threshold = det.threshold().ok_or_else(|| MagnetError::Uncalibrated {
        detector: det.name(),
    })?;
    let scores = det.scores(x, cache)?;
    record_scores(&det.name(), &scores);
    Ok((scores, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use crate::detector::{JsdDetector, ReconstructionDetector, ReconstructionNorm};
    use crate::jsd::jsd_rows;
    use adv_nn::loss::ReconstructionLoss;
    use adv_nn::softmax::softmax_rows_with_temperature;
    use adv_tensor::Shape;

    /// A deployed detector's model copies, scored without a cache: the
    /// cache-free reference the pass is checked against.
    enum Reference {
        /// `‖x − AE(x)‖ₚ`.
        Recon(Autoencoder, u8),
        /// JSD between softened logits of `x` and `AE(x)` at a temperature.
        Jsd(Autoencoder, Sequential, f32),
    }

    impl Reference {
        fn detector(&self) -> Box<dyn Detector> {
            match self {
                Reference::Recon(ae, 1) => Box::new(ReconstructionDetector::new(
                    ae.clone(),
                    ReconstructionNorm::L1,
                )),
                Reference::Recon(ae, _) => Box::new(ReconstructionDetector::new(
                    ae.clone(),
                    ReconstructionNorm::L2,
                )),
                Reference::Jsd(ae, clf, t) => {
                    Box::new(JsdDetector::new(ae.clone(), clf.clone(), *t).unwrap())
                }
            }
        }

        fn scores(&self, x: &Tensor) -> Vec<f32> {
            match self {
                Reference::Recon(ae, p) => ae.reconstruction_errors(x, *p).unwrap(),
                Reference::Jsd(ae, clf, t) => {
                    let logits_x = clf.infer(x).unwrap();
                    let logits_r = clf.infer(&ae.reconstruct(x).unwrap()).unwrap();
                    let px = softmax_rows_with_temperature(&logits_x, *t).unwrap();
                    let pr = softmax_rows_with_temperature(&logits_r, *t).unwrap();
                    jsd_rows(px.as_slice(), pr.as_slice(), logits_x.shape().dim(1)).unwrap()
                }
            }
        }
    }

    /// The pass with every consumer rerunning its own networks: verdicts
    /// and per-detector scores.
    fn reference_pass(
        d: &MagnetDefense,
        refs: &[Reference],
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> (Vec<Verdict>, Vec<Vec<f32>>) {
        let mut detected = vec![false; x.shape().dim(0)];
        let mut scores = Vec::new();
        if matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full) {
            for (r, det) in refs.iter().zip(&d.detectors) {
                let s = r.scores(x);
                let threshold = det.threshold().unwrap();
                for (f, v) in detected.iter_mut().zip(&s) {
                    *f |= *v > threshold;
                }
                scores.push(s);
            }
        }
        let input = match scheme {
            DefenseScheme::ReformerOnly | DefenseScheme::Full => d.reformer.reconstruct(x).unwrap(),
            _ => x.clone(),
        };
        let preds = d.classifier.infer(&input).unwrap().argmax_rows().unwrap();
        let verdicts = detected
            .into_iter()
            .zip(preds)
            .map(|(f, p)| {
                if f {
                    Verdict::Detected
                } else {
                    Verdict::Classified(p)
                }
            })
            .collect();
        (verdicts, scores)
    }

    fn toy_ae() -> Autoencoder {
        Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap()
    }

    /// Seed 4: unlike most untrained seeds, its argmax varies across the
    /// toy batch and differs between `x` and `AE(x)`, so verdicts show
    /// which input the classifier stage saw.
    fn toy_classifier() -> Sequential {
        Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap()
    }

    fn assemble(name: &str, refs: &[Reference]) -> MagnetDefense {
        let detectors = refs.iter().map(Reference::detector).collect();
        MagnetDefense::new(name, detectors, toy_ae(), toy_classifier())
    }

    /// One L2 reconstruction detector sharing the reformer's AE.
    fn toy_refs() -> Vec<Reference> {
        vec![Reference::Recon(toy_ae(), 2)]
    }

    /// The paper's D+JSD redundancy pattern: one AE shared by a
    /// reconstruction detector, two JSD detectors, and the reformer; the
    /// JSD detectors also carry clones of the protected classifier.
    fn jsd_refs() -> Vec<Reference> {
        vec![
            Reference::Recon(toy_ae(), 2),
            Reference::Jsd(toy_ae(), toy_classifier(), 10.0),
            Reference::Jsd(toy_ae(), toy_classifier(), 40.0),
        ]
    }

    fn toy_defense() -> MagnetDefense {
        assemble("toy", &toy_refs())
    }

    fn jsd_defense() -> MagnetDefense {
        assemble("toy-d-jsd", &jsd_refs())
    }

    fn toy_batch(n: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 11) as f32 / 11.0)
    }

    fn verdicts(d: &MagnetDefense, x: &Tensor, scheme: DefenseScheme) -> Result<Vec<Verdict>> {
        Ok(d.classify_batch(x, scheme)?.0)
    }

    #[test]
    fn verdict_semantics() {
        assert!(Verdict::Detected.defends(3));
        assert!(Verdict::Classified(3).defends(3));
        assert!(!Verdict::Classified(2).defends(3));
    }

    #[test]
    fn scheme_none_never_detects() {
        let d = toy_defense();
        // No calibration needed: scheme None skips detectors entirely.
        let v = verdicts(&d, &toy_batch(4), DefenseScheme::None).unwrap();
        assert!(v.iter().all(|v| matches!(v, Verdict::Classified(_))));
    }

    #[test]
    fn uncalibrated_full_scheme_errors() {
        let d = toy_defense();
        assert!(matches!(
            verdicts(&d, &toy_batch(2), DefenseScheme::Full),
            Err(MagnetError::Uncalibrated { .. })
        ));
        assert!(d.detect(&toy_batch(2)).is_err());
    }

    #[test]
    fn calibrated_pipeline_runs_all_schemes() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        for scheme in DefenseScheme::ALL {
            let acc = d.accuracy(&toy_batch(8), &[0; 8], scheme).unwrap();
            assert!((0.0..=1.0).contains(&acc), "{scheme:?}: {acc}");
        }
    }

    #[test]
    fn detector_only_flags_off_manifold_input() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.02).unwrap();
        // Saturated checkerboard is far from anything the random AE maps well;
        // reconstruction error should be large relative to clean scores.
        let weird = Tensor::from_fn(Shape::nchw(4, 1, 8, 8), |i| ((i / 3) % 2) as f32);
        let flags = d.detect(&weird).unwrap();
        // At least the pipeline runs and returns per-item flags.
        assert_eq!(flags.len(), 4);
    }

    #[test]
    fn breakdown_matches_combined_detection() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(6);
        let combined = d.detect(&x).unwrap();
        let breakdown = d.detect_breakdown(&x).unwrap();
        assert_eq!(breakdown.len(), d.num_detectors());
        for i in 0..6 {
            let any = breakdown.iter().any(|(_, flags)| flags[i]);
            assert_eq!(any, combined[i], "item {i}");
        }
        assert_eq!(breakdown[0].0, "recon-l2");
    }

    #[test]
    fn accuracy_counts_detected_as_defended() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        // Force-detect everything by dropping the threshold below all scores.
        for det in &mut d.detectors {
            det.set_threshold(-1.0);
        }
        let acc = d
            .accuracy(&toy_batch(5), &[9; 5], DefenseScheme::Full)
            .unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn accuracy_rejects_mismatched_labels() {
        let d = toy_defense();
        for labels in [&[0, 0][..], &[0, 0, 0, 0]] {
            assert!(
                matches!(
                    d.accuracy(&toy_batch(3), labels, DefenseScheme::None),
                    Err(MagnetError::InvalidArgument(_))
                ),
                "{} labels",
                labels.len()
            );
        }
        assert!(d
            .accuracy(&toy_batch(3), &[0, 0, 0], DefenseScheme::None)
            .is_ok());
    }

    #[test]
    fn pass_matches_cache_free_reference_bitwise() {
        for (name, refs) in [("toy", toy_refs()), ("toy-d-jsd", jsd_refs())] {
            let mut d = assemble(name, &refs);
            d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
            let x = toy_batch(12);
            assert_ne!(
                reference_pass(&d, &refs, &x, DefenseScheme::None).0,
                reference_pass(&d, &refs, &x, DefenseScheme::ReformerOnly).0,
                "{name}: the classifier must tell x from AE(x)"
            );
            for scheme in DefenseScheme::ALL {
                let (want, want_scores) = reference_pass(&d, &refs, &x, scheme);
                let (got, report) = d.classify_batch(&x, scheme).unwrap();
                assert_eq!(got, want, "{name} {scheme:?}");
                let bits = |cols: &[Vec<f32>]| -> Vec<Vec<u32>> {
                    cols.iter()
                        .map(|c| c.iter().map(|s| s.to_bits()).collect())
                        .collect()
                };
                assert_eq!(
                    bits(&report.scores),
                    bits(&want_scores),
                    "{name} {scheme:?}"
                );
                match scheme {
                    DefenseScheme::DetectorOnly | DefenseScheme::Full => {
                        assert_eq!(report.scores.len(), d.num_detectors());
                        assert!(report.timings.detect > Duration::ZERO);
                    }
                    _ => assert!(report.scores.is_empty()),
                }
            }
        }
    }

    #[test]
    fn hook_sees_each_running_stage_once_in_order() {
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(3);
        let expected: [&[&str]; 4] = [
            &[STAGE_CLASSIFY],
            &[STAGE_DETECT, STAGE_CLASSIFY],
            &[STAGE_REFORM, STAGE_CLASSIFY],
            &[STAGE_DETECT, STAGE_REFORM, STAGE_CLASSIFY],
        ];
        for (scheme, want) in DefenseScheme::ALL.into_iter().zip(expected) {
            let mut seen = Vec::new();
            let (got, _) = d
                .pass(&x, scheme, &mut |stage| {
                    seen.push(stage);
                    Ok(())
                })
                .unwrap();
            assert_eq!(seen, want, "{scheme:?}");
            assert_eq!(got, verdicts(&d, &x, scheme).unwrap(), "{scheme:?}");
        }
        // An error from the hook fails the pass before its stage runs.
        let mut seen = Vec::new();
        let err = d
            .pass(&x, DefenseScheme::Full, &mut |stage| {
                seen.push(stage);
                if stage == STAGE_REFORM {
                    return Err(MagnetError::InvalidArgument("stop".into()));
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, MagnetError::InvalidArgument(_)));
        assert_eq!(seen, [STAGE_DETECT, STAGE_REFORM]);
    }

    #[test]
    fn pass_actually_deduplicates_shared_work() {
        // Replay a Full pass through one cache and count network executions.
        // Without the cache, this defense runs the shared AE four times
        // (recon detector, two JSD detectors, reformer) and the classifier
        // five times (x and AE(x) per JSD detector, plus the final pass on
        // the reformed batch) — 9 network runs for only 3 distinct
        // computations.
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(4);
        let mut cache = InferenceCache::new();
        for det in &d.detectors {
            det.scores(&x, &mut cache).unwrap();
        }
        let reformed = cache.reconstruction(&d.reformer, &x).unwrap();
        cache.logits(&d.classifier, &reformed).unwrap();
        // Distinct: AE(x), logits(x), logits(AE(x)) = 3.
        assert_eq!(cache.misses(), 3, "distinct sub-computations");
        assert_eq!(cache.hits(), 6, "deduplicated sub-computations");
    }

    #[test]
    fn scheme_labels_match_paper_legends() {
        assert_eq!(DefenseScheme::None.label(), "No defense");
        assert_eq!(DefenseScheme::Full.label(), "With detector & reformer");
        assert_eq!(DefenseScheme::ALL.len(), 4);
    }
}
