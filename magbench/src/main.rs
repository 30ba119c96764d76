//! Benchmark of the MagNet-L1 reproduction and its serving stack.
//!
//! ```text
//! magbench --workload reproduce|serve|wire --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Each workload runs in its own process, makes its inputs from `--seed`,
//! checks the program's outputs and prints, as its last line, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! and the tracing overhead with `--trace 1`. See README.md.

mod corpus;
mod report;
mod reproduce;
mod serve;
mod stats;
mod trace;
mod wire;

use corpus::Corpus;
use report::{Metrics, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const WORKLOADS: [&str; 3] = ["reproduce", "serve", "wire"];

/// Set-ups per `serve` or `wire` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Every end-to-end metric, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rps", "1/s"),
    ("latency_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Every per-layer metric besides the per-stage times. A workload that
/// leaves a layer idle reports it as 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("data.s", "s"),
    ("train.s", "s"),
    ("train.models", "count"),
    ("attack.s", "s"),
    ("attack.examples", "count"),
    ("attack.examples_per_s", "1/s"),
    ("attack.cache_hits", "count"),
    ("eval.s", "s"),
    ("magnet.pipeline_b1_ms", "ms"),
    ("magnet.pipeline_b32_ms", "ms"),
    ("magnet.detect_b32_ms", "ms"),
    ("magnet.reform_b32_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("serve.late_p99_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("zoo.submit_us", "us"),
    ("zoo.routing_epoch", "count"),
    ("wire.rps", "1/s"),
    ("wire.net_ms", "ms"),
    ("wire.queue_ms", "ms"),
    ("wire.infer_ms", "ms"),
    ("wire.batch_mean", "count"),
    ("wire.p99_ms", "ms"),
    ("net.answered", "count"),
    ("net.busy", "count"),
    ("net.frame_errors", "count"),
    ("telemetry.recorded_ratio", "ratio"),
    ("telemetry.rows_dropped", "count"),
    ("telemetry.flush_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("setup.calibrate_s", "s"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1 to 600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the corpus and starts a serving stack `SETUP_REPEATS` times, each
/// in a fresh directory, stopping the previous stack before the next
/// set-up. Returns the set-up times and the last corpus and stack.
fn set_up<S>(
    dir: &Path,
    tracer: &Tracer,
    start: impl Fn(&Corpus, &Path) -> Res<S>,
) -> Res<(Vec<f64>, Corpus, S)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        drop(last.take());
        let rep_dir = dir.join(format!("setup{rep}"));
        let t0 = Instant::now();
        let built = tracer.span("setup", 0, 0, |id| -> Res<_> {
            let corpus = corpus::build(&rep_dir.join("models"), tracer, id)?;
            let stack = tracer.span("start", id, 0, |_| start(&corpus, &rep_dir))?;
            Ok((corpus, stack))
        })?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (corpus, stack) = last.ok_or("no set-up ran")?;
    Ok((times, corpus, stack))
}

/// Per-layer metrics of the set-up repetitions: the median of each span.
fn setup_layers(tracer: &Tracer, corpus: &Corpus, outcome: &mut Outcome) -> Res<()> {
    let spans = tracer.spans();
    let med = |name: &str| stats::median(&trace::durations_s(&spans, name));
    let layer = &mut outcome.per_layer;
    layer.push("data.s", med("data"), "s");
    layer.push("train.s", med("train"), "s");
    // The victim classifier and the two MNIST auto-encoders.
    layer.push("train.models", 3.0, "count");
    layer.push("setup.calibrate_s", med("calibrate"), "s");
    let attack_s = med("attack");
    let examples = corpus.crafted as f64;
    layer.push("attack.s", attack_s, "s");
    layer.push("attack.examples", examples, "count");
    layer.push("attack.examples_per_s", examples / attack_s, "1/s");
    let setups: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "setup").collect();
    let selfs = trace::self_times(&spans);
    let own: u64 = setups.iter().map(|s| selfs[&s.id]).sum();
    let total: u64 = setups.iter().map(|s| s.duration_ns()).sum();
    layer.push(
        "trace.coverage_pct",
        100.0 * (1.0 - own as f64 / total as f64),
        "%",
    );
    for (name, ms) in corpus::layer_timings(corpus, tracer)? {
        layer.push(name, ms, "ms");
    }
    Ok(())
}

fn run_serve(args: &Args, dir: &Path, tracer: &Tracer) -> Res<Outcome> {
    let mut outcome = Outcome::default();
    let (setup, corpus, zoo) = set_up(dir, tracer, serve::start)?;
    let plain = serve::pass(zoo, &corpus, args.seed, args.seconds, &Tracer::new(false))?;
    outcome.add_counts(plain.counts());
    outcome
        .end_to_end
        .push("setup_s", stats::median(&setup), "s");
    serve::report(&plain, &mut outcome);
    if tracer.on() {
        setup_layers(tracer, &corpus, &mut outcome)?;
        let zoo = serve::start(&corpus, &dir.join("traced"))?;
        let traced = serve::pass(zoo, &corpus, args.seed, args.seconds, tracer)?;
        outcome.add_counts(traced.counts());
        serve::report_layers(&plain, &traced, &mut outcome)?;
    }
    Ok(outcome)
}

fn run_wire(args: &Args, dir: &Path, tracer: &Tracer) -> Res<Outcome> {
    let mut outcome = Outcome::default();
    let (setup, corpus, stack) = set_up(dir, tracer, wire::start)?;
    let plain = wire::pass(stack, &corpus, args.seed, args.seconds, &Tracer::new(false))?;
    outcome.add_counts(plain.counts());
    outcome
        .end_to_end
        .push("setup_s", stats::median(&setup), "s");
    wire::report(&plain, &mut outcome);
    if tracer.on() {
        setup_layers(tracer, &corpus, &mut outcome)?;
        let stack = wire::start(&corpus, &dir.join("traced"))?;
        let traced = wire::pass(stack, &corpus, args.seed, args.seconds, tracer)?;
        outcome.add_counts(traced.counts());
        wire::report_layers(&plain, &traced, &mut outcome)?;
    }
    Ok(outcome)
}

fn run(args: &Args, dir: &Path, tracer: &Tracer) -> Res<Outcome> {
    let mut outcome = match args.workload.as_str() {
        "reproduce" => reproduce::run(args.seed, dir, tracer)?,
        "serve" => run_serve(args, dir, tracer)?,
        _ => run_wire(args, dir, tracer)?,
    };
    outcome
        .end_to_end
        .push("rss_mb", report::peak_rss_mb()?, "MiB");
    Ok(outcome)
}

/// The metrics the result line carries: every end-to-end metric untraced,
/// every per-layer metric traced, idle layers as 0.
fn selected(outcome: &Outcome, traced: bool) -> Res<Metrics> {
    let mut out = Metrics::default();
    if !traced {
        for (name, unit) in END_TO_END {
            let v = outcome
                .end_to_end
                .get(name)
                .ok_or_else(|| format!("workload did not report {name}"))?;
            out.push(name, v, unit);
        }
        return Ok(out);
    }
    let stages = reproduce::STAGES
        .iter()
        .map(|s| (format!("stage.{s}_s"), "s"));
    let names = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(stages);
    for (name, unit) in names {
        out.push(
            name.clone(),
            outcome.per_layer.get(&name).unwrap_or(0.0),
            unit,
        );
    }
    if let Some(extra) = outcome
        .per_layer
        .iter()
        .find(|m| out.get(&m.name).is_none())
    {
        return Err(format!("per-layer metric {} is not declared", extra.name).into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("magbench: {e}");
            eprintln!(
                "usage: magbench --workload reproduce|serve|wire --seed <n> --seconds <s> --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    report::pin_allocator();
    // The program's own tracing and profiling stay off, whatever the
    // environment says: the benchmark measures the uninstrumented program.
    std::env::remove_var("ADV_OBS");
    std::env::remove_var("ADV_PROFILE");

    let dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let tracer = Tracer::new(args.trace);
    let result = run(&args, &dir, &tracer);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(mut o) => {
            if args.trace {
                o.per_layer
                    .push("trace.spans", tracer.spans().len() as f64, "count");
            }
            o
        }
        Err(e) => {
            eprintln!("magbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("magbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "spans written to {}; self time by span name:",
            path.display()
        );
        for (name, count, total, own) in trace::summary(&tracer.spans()).iter().take(25) {
            eprintln!("  {name:<32} {count:>7} spans {total:>10.3} s total {own:>10.3} s self");
        }
    }
    let metrics = match selected(&outcome, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("magbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    for m in metrics.iter() {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("magbench: {} failed its output checks", args.workload);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload serve --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve").is_err());
        assert!(args("--workload serve --seed 1 --trace 2").is_err());
        assert!(args("--workload serve --seed 1 --seconds 0").is_err());
        assert!(args("--workload serve --seed").is_err());
    }

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(PER_LAYER.iter().map(|(n, _)| n.to_string()));
        all.extend(reproduce::STAGES.iter().map(|s| format!("stage.{s}_s")));
        assert!(all.iter().all(|n| stats::valid_metric_name(n)));
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\": \"").count();
        let workloads = WORKLOADS.len();
        let stages = reproduce::STAGES.len();
        assert_eq!(
            declared,
            workloads + END_TO_END.len() + PER_LAYER.len() + stages
        );
        let unit_of = |name: &str| {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &json[at..];
            let u = rest.find("\"unit\": \"").expect("unit follows name") + 9;
            rest[u..].split('"').next().map(str::to_string)
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert_eq!(unit_of(name).as_deref(), Some(*unit), "{name}");
        }
        for s in reproduce::STAGES {
            assert_eq!(unit_of(&format!("stage.{s}_s")).as_deref(), Some("s"));
        }
    }
}
