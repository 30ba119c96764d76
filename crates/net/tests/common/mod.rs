//! Shared fixtures for the adv-net integration tests: a cheap,
//! deterministic defense pipeline (no neural nets — verdicts are a pure
//! function of the input bytes) so the tests exercise the *wire* path, not
//! inference cost.

use adv_magnet::{DefensePipeline, DefenseScheme, MagnetError, PassReport, Verdict};
use adv_tensor::{Shape, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The verdict the stub pipeline produces for one item — shared with the
/// tests so wire verdicts can be checked against the in-process truth.
pub fn stub_verdict(item: &[f32]) -> Verdict {
    let sum: f32 = item.iter().sum();
    let q = (sum.abs() * 16.0) as usize;
    if q.is_multiple_of(7) {
        Verdict::Detected
    } else {
        Verdict::Classified(q % 10)
    }
}

/// A deterministic, dependency-free pipeline with optional per-batch delay
/// and a countdown of injected transient failures.
#[derive(Debug, Default)]
pub struct StubPipeline {
    /// Sleep per batch (creates queue pressure / deadline expiry).
    pub delay: Duration,
    /// While nonzero, each batch fails (decrementing) with a transient
    /// stage error — exercises the server-side retry path.
    pub fail_next: AtomicU64,
}

impl DefensePipeline for StubPipeline {
    fn name(&self) -> &str {
        "stub"
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        _scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, PassReport)> {
        if self.delay > Duration::ZERO {
            std::thread::sleep(self.delay);
        }
        loop {
            let n = self.fail_next.load(Ordering::Relaxed);
            if n == 0 {
                break;
            }
            if self
                .fail_next
                .compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Err(MagnetError::Stage {
                    stage: "stub".into(),
                    message: "injected transient failure".into(),
                });
            }
        }
        let n = x.shape().dims().first().copied().unwrap_or(0);
        let data = x.as_slice();
        let item_len = data.len() / n.max(1);
        let verdicts = (0..n)
            .map(|i| stub_verdict(&data[i * item_len..(i + 1) * item_len]))
            .collect();
        Ok((verdicts, PassReport::default()))
    }
}

/// A deterministic `[1, 8, 8]` input, distinct per `offset`.
pub fn item(offset: usize) -> Tensor {
    Tensor::from_fn(Shape::new(vec![1, 8, 8]), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
}
