//! The `serve` workload: in-process requests through a `ModelZoo`
//! default-variant shard over the D+JSD defense, with no observer attached
//! (the unscored fused path), from one load-generator thread.
//!
//! - Open phase: seeded Poisson arrivals at a fixed rate. Each request is
//!   timed from its scheduled send time, so a stalled generator or engine
//!   charges the wait to every request it delays. The batches are small
//!   (1–2), where the engine's linger matters.
//! - Saturated phase: a fixed number of requests with a fixed number kept
//!   outstanding. The batches are full (32), where the conv kernels of
//!   the defense dominate.
//!
//! The two phases alternate over several rounds, so that each samples the
//! whole run: the shared VM's speed drifts over seconds, and two long
//! phases would each see only one stretch of it.

use crate::corpus::Corpus;
use crate::report::Outcome;
use crate::stats::{self, median, poisson_schedule, SplitMix};
use crate::trace::Tracer;
use crate::Res;
use adv_magnet::DefenseScheme;
use adv_serve::{
    PendingVerdict, RequestTag, ServeConfig, ServeResponse, VariantRouter, DEFAULT_VARIANT,
};
use adv_zoo::{ModelZoo, NullLoader, ZooConfig};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-phase arrival rate, requests per second.
const OPEN_RATE: f64 = 50.0;
/// Length of the open phase as a share of `--seconds`, on average.
const OPEN_SHARE: f64 = 1.4;
/// Saturated-phase requests per second of `--seconds`.
const SATURATED_PER_S: f64 = 300.0;
/// Open/saturated rounds per pass.
const ROUNDS: usize = 5;
/// Equal-count segments per saturated round; `rps` is the median rate of
/// all of them.
const SEGMENTS: usize = 2;
/// Requests kept outstanding in the saturated phase.
const OUTSTANDING: usize = 256;
/// Server-side deadline; far beyond any latency seen, so nothing is shed.
const BUDGET: Duration = Duration::from_secs(30);

pub fn start(corpus: &Corpus, dir: &Path) -> Res<ModelZoo> {
    let mut cfg = ZooConfig::new(dir.join("zoo"));
    cfg.shard = ServeConfig {
        max_batch: 32,
        max_wait: Duration::from_millis(2),
        queue_capacity: 2048,
        workers: 1,
        scheme: DefenseScheme::Full,
        ..ServeConfig::default()
    };
    let zoo = ModelZoo::open(Arc::new(NullLoader), cfg)?;
    zoo.install(DEFAULT_VARIANT, corpus.pipeline())?;
    Ok(zoo)
}

/// Open-phase requests in a run of `seconds`: the arrival rate times the
/// open phase's length. The count does not depend on the seed, so a run
/// long enough for `serve.p99_ms` is long enough for every seed.
fn open_requests(seconds: f64) -> usize {
    (OPEN_RATE * OPEN_SHARE * seconds).ceil() as usize
}

/// Sleeps until `due`. The generator does not spin: with two vCPUs a
/// spinning generator competes with the engine worker for the core.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

struct Sent {
    pending: adv_serve::Result<PendingVerdict>,
    due: Instant,
    sent: Instant,
    sample: usize,
    span: u64,
    request: u64,
}

pub struct Pass {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    submit_s: Vec<f64>,
    segment_rates: Vec<f64>,
    saturated: usize,
    engine_batch_mean: f64,
    completed: u64,
    engine_failed: u64,
    shed: u64,
    epoch: u64,
    attempted: u64,
    failed: u64,
}

impl Pass {
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Saturated throughput: the median rate of equal-count segments.
    fn rps(&self) -> f64 {
        median(&self.segment_rates)
    }

    fn settle(&mut self, s: Sent, corpus: &Corpus, tracer: &Tracer) -> Option<ServeResponse> {
        self.attempted += 1;
        match s.pending.and_then(PendingVerdict::wait) {
            Ok(r) if r.verdict == corpus.expected[s.sample] => {
                tracer.record(
                    s.span,
                    "serve.request",
                    0,
                    s.request,
                    s.due,
                    s.sent + r.latency,
                );
                Some(r)
            }
            Ok(r) => {
                eprintln!(
                    "serve: sample {} got {:?}, expected {:?}",
                    s.sample, r.verdict, corpus.expected[s.sample]
                );
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("serve: request for sample {} failed: {e}", s.sample);
                self.failed += 1;
                None
            }
        }
    }
}

fn send(
    zoo: &ModelZoo,
    corpus: &Corpus,
    tracer: &Tracer,
    rng: &mut SplitMix,
    request: u64,
    due: Instant,
) -> (Sent, f64) {
    let sample = rng.below(corpus.inputs.len());
    let span = tracer.next_id();
    let sent = Instant::now();
    let pending = tracer.span("zoo.submit", span, request, |_| {
        let tag = RequestTag::new(0, 0, sample as u32);
        zoo.submit_routed(DEFAULT_VARIANT, corpus.inputs[sample].clone(), tag, BUDGET)
    });
    let submit_s = sent.elapsed().as_secs_f64();
    (
        Sent {
            pending,
            due,
            sent,
            sample,
            span,
            request,
        },
        submit_s,
    )
}

/// Open-phase rounds alternating with saturated rounds against a started
/// stack, which is shut down at the end so that its accounting is read at
/// quiescence.
pub fn pass(zoo: ModelZoo, corpus: &Corpus, seed: u64, seconds: f64, tracer: &Tracer) -> Res<Pass> {
    let epoch = zoo.routing_epoch();
    let mut rng = SplitMix::new(seed ^ 0x5E87_E000);
    let per_round = (SATURATED_PER_S * seconds / ROUNDS as f64).ceil() as usize;
    let mut p = Pass {
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        submit_s: Vec::new(),
        segment_rates: Vec::new(),
        saturated: per_round * ROUNDS,
        engine_batch_mean: 0.0,
        completed: 0,
        engine_failed: 0,
        shed: 0,
        epoch,
        attempted: 0,
        failed: 0,
    };

    let schedule = poisson_schedule(seed, OPEN_RATE, open_requests(seconds));
    let mut rounds = schedule.chunks(schedule.len().div_ceil(ROUNDS).max(1));
    let mut from = 0.0;
    let mut request = 0;
    for _ in 0..ROUNDS {
        let arrivals = rounds.next().unwrap_or_default();
        let start = Instant::now() + Duration::from_millis(5);
        let mut open = Vec::new();
        for &offset in arrivals {
            let due = start + Duration::from_secs_f64(offset - from);
            wait_until(due);
            request += 1;
            let (sent, submit_s) = send(&zoo, corpus, tracer, &mut rng, request, due);
            p.late_ms.push((sent.sent - due).as_secs_f64() * 1e3);
            p.submit_s.push(submit_s);
            open.push(sent);
        }
        from = arrivals.last().copied().unwrap_or(from);
        for s in open {
            let (due, sent) = (s.due, s.sent);
            if let Some(r) = p.settle(s, corpus, tracer) {
                p.latency_ms
                    .push((sent + r.latency - due).as_secs_f64() * 1e3);
                p.queue_wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
            }
        }

        let started = Instant::now();
        let mut window = VecDeque::with_capacity(OUTSTANDING);
        let mut done_s = Vec::with_capacity(per_round);
        let mut finish = |p: &mut Pass, s: Sent| {
            let sent = s.sent;
            if let Some(r) = p.settle(s, corpus, tracer) {
                done_s.push(
                    (sent + r.latency)
                        .saturating_duration_since(started)
                        .as_secs_f64(),
                );
            }
        };
        for _ in 0..per_round {
            if window.len() == OUTSTANDING {
                finish(&mut p, window.pop_front().expect("window is full"));
            }
            request += 1;
            window.push_back(send(&zoo, corpus, tracer, &mut rng, request, Instant::now()).0);
        }
        for s in window {
            finish(&mut p, s);
        }
        p.segment_rates
            .extend(stats::segment_rates(&done_s, SEGMENTS));
    }

    let epoch_stable = zoo.routing_epoch() == epoch;
    let m = zoo
        .variant_metrics(DEFAULT_VARIANT)
        .ok_or("default variant left the routing table")?;
    drop(zoo);
    if m.submitted != m.completed + m.failed + m.shed_expired {
        eprintln!("serve: zoo accounting broken: {m:?}");
        p.failed += 1;
    }
    if !epoch_stable {
        eprintln!("serve: routing epoch moved during the run");
        p.failed += 1;
    }
    p.engine_batch_mean = m.mean_batch_size;
    p.completed = m.completed;
    p.engine_failed = m.failed;
    p.shed = m.shed_expired;
    Ok(p)
}

/// End-to-end metrics of the untraced pass.
pub fn report(plain: &Pass, outcome: &mut Outcome) {
    let e2e = &mut outcome.end_to_end;
    e2e.push("wall_s", plain.saturated as f64 / plain.rps(), "s");
    e2e.push("rps", plain.rps(), "1/s");
    e2e.push("latency_ms", median(&plain.latency_ms), "ms");
}

/// Per-layer metrics: tails of the untraced pass, layers of the traced one.
pub fn report_layers(plain: &Pass, traced: &Pass, outcome: &mut Outcome) -> Res<()> {
    let layer = &mut outcome.per_layer;
    layer.push(
        "serve.p99_ms",
        stats::quantile(&plain.latency_ms, 0.99, "serve open-phase latency")?,
        "ms",
    );
    layer.push("serve.queue_wait_ms", median(&traced.queue_wait_ms), "ms");
    layer.push("serve.batch_mean", traced.engine_batch_mean, "count");
    layer.push("serve.completed", traced.completed as f64, "count");
    layer.push("serve.failed", traced.engine_failed as f64, "count");
    layer.push("serve.shed", traced.shed as f64, "count");
    layer.push(
        "serve.late_p99_ms",
        stats::quantile(&traced.late_ms, 0.99, "generator lateness")?,
        "ms",
    );
    layer.push("zoo.submit_us", median(&traced.submit_s) * 1e6, "us");
    layer.push("zoo.routing_epoch", traced.epoch as f64, "count");
    layer.push(
        "trace.overhead_pct",
        100.0 * (plain.rps() / traced.rps() - 1.0),
        "%",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_seconds` from the `BENCHMARK.json` beside this package.
    fn run_seconds() -> f64 {
        let bench = include_str!("../../BENCHMARK.json");
        let at = bench
            .find("\"run_seconds\":")
            .expect("run_seconds in BENCHMARK.json");
        let rest = bench[at + "\"run_seconds\":".len()..].trim_start();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("run_seconds is a whole number")
    }

    #[test]
    fn open_phase_supports_p99_for_every_seed() {
        let seconds = run_seconds();
        for seed in 0..500 {
            let n = poisson_schedule(seed, OPEN_RATE, open_requests(seconds)).len();
            assert!(
                stats::supports(n, 0.99),
                "seed {seed}: {n} open-phase requests"
            );
        }
    }
}
