//! Benchmarks of the MagNet defense pipeline: detector scoring (both
//! families), the reformer, threshold calibration, and the full
//! detect-reform-classify path.

use adv_bench::{image_batch, trained_autoencoders, trained_classifier};
use adv_magnet::{
    DefensePipeline, DefenseScheme, Detector, InferenceCache, JsdDetector, MagnetDefense,
    ReconstructionDetector, ReconstructionNorm,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_detectors(c: &mut Criterion) {
    let aes = trained_autoencoders();
    let clf = trained_classifier();
    let x = image_batch(16, 1, 28);

    let mut g = c.benchmark_group("detector_scoring_b16");
    g.sample_size(20);
    g.bench_function("recon_l1", |bench| {
        let det = ReconstructionDetector::new(aes.ae_two.clone(), ReconstructionNorm::L1);
        bench.iter(|| {
            det.scores(black_box(&x), &mut InferenceCache::new())
                .expect("det.scores failed")
        })
    });
    g.bench_function("recon_l2", |bench| {
        let det = ReconstructionDetector::new(aes.ae_one.clone(), ReconstructionNorm::L2);
        bench.iter(|| {
            det.scores(black_box(&x), &mut InferenceCache::new())
                .expect("det.scores failed")
        })
    });
    g.bench_function("jsd_t40", |bench| {
        let det = JsdDetector::new(aes.ae_one.clone(), clf.clone(), 40.0)
            .expect("JsdDetector::new failed");
        bench.iter(|| {
            det.scores(black_box(&x), &mut InferenceCache::new())
                .expect("det.scores failed")
        })
    });
    g.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let aes = trained_autoencoders();
    let clean = image_batch(128, 1, 28);
    c.bench_function("calibrate_recon_detector_128", |bench| {
        let mut det = ReconstructionDetector::new(aes.ae_one.clone(), ReconstructionNorm::L2);
        bench.iter(|| {
            det.calibrate(black_box(&clean), 0.02)
                .expect("det.calibrate failed")
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let aes = trained_autoencoders();
    let clf = trained_classifier();
    let mut defense = MagnetDefense::new(
        "bench",
        vec![
            Box::new(ReconstructionDetector::new(
                aes.ae_one.clone(),
                ReconstructionNorm::L2,
            )),
            Box::new(ReconstructionDetector::new(
                aes.ae_two.clone(),
                ReconstructionNorm::L1,
            )),
        ],
        aes.ae_one.clone(),
        clf,
    );
    let clean = image_batch(64, 1, 28);
    defense
        .calibrate_detectors(&clean, 0.02)
        .expect("defense.calibrate_detectors failed");
    let x = image_batch(16, 1, 28);

    let mut g = c.benchmark_group("defense_pipeline_b16");
    g.sample_size(20);
    for scheme in DefenseScheme::ALL {
        g.bench_function(format!("{scheme:?}"), |bench| {
            bench.iter(|| {
                defense
                    .classify_batch(black_box(&x), scheme)
                    .expect("defense.classify_batch failed")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_detectors,
    bench_calibration,
    bench_full_pipeline
);
criterion_main!(benches);
