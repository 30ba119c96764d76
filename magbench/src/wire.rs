//! The `wire` workload: two client threads, each holding one blocking
//! `NetClient` connection as its own derived-key tenant, in a closed loop
//! against a loopback `NetServer`.
//!
//! The server routes through a `ModelZoo` shard with production batching
//! and a `TelemetryRecorder` as its observer, so the scored pipeline and
//! the telemetry chunk writes run beside the request path. With one
//! request in flight per client the batches hold 1–2 items: this exercises
//! the smallest kernel shapes, framing, CRC and syscalls, the admission
//! gates and the engine's linger.

use crate::corpus::Corpus;
use crate::report::Outcome;
use crate::stats::{self, mean, median, SplitMix};
use crate::trace::Tracer;
use crate::Res;
use adv_magnet::DefenseScheme;
use adv_net::{
    derived_key, ClientConfig, NetClient, NetServer, NetServerConfig, Reply, TenantPolicy,
};
use adv_serve::{ResponseObserver, ServeConfig, VariantRouter, DEFAULT_VARIANT};
use adv_telemetry::{ChunkReader, RecorderConfig, TelemetryRecorder};
use adv_zoo::{ModelZoo, NullLoader, ZooConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: u32 = 2;
/// Equal-count segments of the run; `rps` is their median rate.
const SEGMENTS: usize = 10;
/// Round trips per client per second of `--seconds`.
const ROUND_TRIPS_PER_S: f64 = 170.0;
const SECRET: u64 = 0xB3E7_C4A1_0000_5EED;

/// A started front door. Fields drop in order: the server stops before
/// the shard it routes to, and the shard before its observer's recorder.
pub struct Stack {
    server: NetServer,
    zoo: Arc<ModelZoo>,
    recorder: TelemetryRecorder,
    telemetry_dir: PathBuf,
}

pub fn start(corpus: &Corpus, dir: &Path) -> Res<Stack> {
    let telemetry_dir = dir.join("telemetry");
    let recorder = TelemetryRecorder::start(RecorderConfig::new(&telemetry_dir))?;
    let observer: Arc<dyn ResponseObserver> = Arc::new(recorder.sink());
    let mut cfg = ZooConfig::new(dir.join("zoo"));
    cfg.shard = ServeConfig {
        max_batch: 32,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        workers: 1,
        scheme: DefenseScheme::Full,
        observer: Some(observer),
        ..ServeConfig::default()
    };
    let zoo = Arc::new(ModelZoo::open(Arc::new(NullLoader), cfg)?);
    zoo.install(DEFAULT_VARIANT, corpus.pipeline())?;
    let server = NetServer::start(
        zoo.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            tenants: TenantPolicy::Derived {
                secret: SECRET,
                rate_per_sec: 1e9,
                burst: 1e9,
            },
            ..NetServerConfig::default()
        },
    )?;
    Ok(Stack {
        server,
        zoo,
        recorder,
        telemetry_dir,
    })
}

#[derive(Default)]
struct Client {
    rtt_ms: Vec<f64>,
    done_s: Vec<f64>,
    net_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    infer_ms: Vec<f64>,
    batch: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn client_loop(
    id: u32,
    addr: SocketAddr,
    corpus: &Corpus,
    seed: u64,
    count: usize,
    started: Instant,
    tracer: &Tracer,
) -> Res<Client> {
    let tenant = id + 1;
    let key = derived_key(SECRET, tenant);
    let mut rng = SplitMix::new(seed ^ (u64::from(tenant) << 40));
    let mut client = NetClient::connect(addr, tenant, key, ClientConfig::default())?;
    let mut out = Client::default();
    for i in 0..count {
        let sample = rng.below(corpus.inputs.len());
        let request = (u64::from(tenant) << 32) | i as u64;
        let t0 = Instant::now();
        let reply = tracer.span("wire.round_trip", 0, request, |_| {
            client.classify(&corpus.inputs[sample], 1, sample as u32, 0)
        });
        let rtt = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match reply {
            Ok(Reply::Verdict {
                verdict,
                queue_ns,
                infer_ns,
                batch,
                ..
            }) if verdict == corpus.expected[sample] => {
                let (queue, infer) = (queue_ns as f64 * 1e-6, infer_ns as f64 * 1e-6);
                out.rtt_ms.push(rtt);
                out.done_s.push(started.elapsed().as_secs_f64());
                out.net_ms.push(rtt - queue - infer);
                out.queue_ms.push(queue);
                out.infer_ms.push(infer);
                out.batch.push(f64::from(batch));
            }
            Ok(other) => {
                eprintln!(
                    "wire: sample {sample} got {other:?}, expected {:?}",
                    corpus.expected[sample]
                );
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("wire: round trip for sample {sample} failed: {e}; reconnecting");
                out.failed += 1;
                client = NetClient::connect(addr, tenant, key, ClientConfig::default())?;
            }
        }
    }
    client.bye()?;
    Ok(out)
}

pub struct Pass {
    /// Round trips per second: the median rate of equal-count segments.
    rps: f64,
    clients: Client,
    answered: u64,
    busy: u64,
    frame_errors: u64,
    recorded_ratio: f64,
    rows_dropped: u64,
    flush_ms: f64,
}

/// One closed-loop run against a started stack, which is shut down at
/// the end so that its accounting is read at quiescence.
pub fn pass(stack: Stack, corpus: &Corpus, seed: u64, seconds: f64, tracer: &Tracer) -> Res<Pass> {
    let addr = stack.server.addr();
    let epoch = stack.zoo.routing_epoch();
    let per_client = (ROUND_TRIPS_PER_S * seconds).ceil() as usize;
    let started = Instant::now();
    let results: Vec<Res<Client>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                s.spawn(move || client_loop(id, addr, corpus, seed, per_client, started, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut clients = Client::default();
    for r in results {
        let c = r?;
        clients.rtt_ms.extend(c.rtt_ms);
        clients.done_s.extend(c.done_s);
        clients.net_ms.extend(c.net_ms);
        clients.queue_ms.extend(c.queue_ms);
        clients.infer_ms.extend(c.infer_ms);
        clients.batch.extend(c.batch);
        clients.attempted += c.attempted;
        clients.failed += c.failed;
    }

    let Stack {
        server,
        zoo,
        recorder,
        telemetry_dir,
    } = stack;
    let epoch_stable = zoo.routing_epoch() == epoch;
    let net = server.shutdown();
    let m = zoo
        .variant_metrics(DEFAULT_VARIANT)
        .ok_or("default variant left the routing table")?;
    drop(zoo);
    let rows_dropped = recorder.sink().dropped();
    let t0 = Instant::now();
    recorder.flush()?;
    let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    recorder.shutdown()?;
    let rows: u64 = ChunkReader::open(&telemetry_dir)?
        .entries()
        .iter()
        .map(|e| u64::from(e.stats.rows))
        .sum();

    let checks = [
        ("wire accounting", net.accounting_holds()),
        (
            "zoo accounting",
            m.submitted == m.completed + m.failed + m.shed_expired,
        ),
        ("routing epoch stable", epoch_stable),
        ("telemetry rows dropped", rows_dropped == 0),
        ("telemetry rows recorded", rows == m.completed),
    ];
    for (what, ok) in checks {
        clients.attempted += 1;
        if !ok {
            eprintln!("wire: check failed: {what} (net {net:?}, zoo {m:?}, rows {rows})");
            clients.failed += 1;
        }
    }
    Ok(Pass {
        rps: median(&stats::segment_rates(&clients.done_s, SEGMENTS)),
        clients,
        answered: net.answered,
        busy: net.busy,
        frame_errors: net.frame_errors,
        recorded_ratio: rows as f64 / net.answered.max(1) as f64,
        rows_dropped,
        flush_ms,
    })
}

impl Pass {
    pub fn counts(&self) -> (u64, u64) {
        (self.clients.attempted, self.clients.failed)
    }
}

/// End-to-end metrics of the untraced pass, all from the median round
/// trip: `rps` is the closed loop's rate at that round trip and `wall_s`
/// the time its round trips take at that rate. The measured rate follows
/// the mean round trip, whose tail doubled in some runs (the two clients
/// fall out of step with the engine's linger), so it is per-layer.
pub fn report(plain: &Pass, outcome: &mut Outcome) {
    let e2e = &mut outcome.end_to_end;
    let p50_ms = median(&plain.clients.rtt_ms);
    let rps = f64::from(CLIENTS) * 1e3 / p50_ms;
    let round_trips = plain.clients.rtt_ms.len() as f64;
    e2e.push("wall_s", round_trips / rps, "s");
    e2e.push("rps", rps, "1/s");
    e2e.push("latency_ms", p50_ms, "ms");
}

/// Per-layer metrics: the measured rate and the tail of the untraced pass,
/// layers of the traced one.
pub fn report_layers(plain: &Pass, pass: &Pass, outcome: &mut Outcome) -> Res<()> {
    let c = &pass.clients;
    let layer = &mut outcome.per_layer;
    layer.push("wire.rps", plain.rps, "1/s");
    layer.push(
        "wire.p99_ms",
        stats::quantile(&plain.clients.rtt_ms, 0.99, "wire round trip")?,
        "ms",
    );
    layer.push("wire.net_ms", median(&c.net_ms), "ms");
    layer.push("wire.queue_ms", median(&c.queue_ms), "ms");
    layer.push("wire.infer_ms", median(&c.infer_ms), "ms");
    layer.push("wire.batch_mean", mean(&c.batch), "count");
    layer.push("net.answered", pass.answered as f64, "count");
    layer.push("net.busy", pass.busy as f64, "count");
    layer.push("net.frame_errors", pass.frame_errors as f64, "count");
    layer.push("telemetry.recorded_ratio", pass.recorded_ratio, "ratio");
    layer.push("telemetry.rows_dropped", pass.rows_dropped as f64, "count");
    layer.push("telemetry.flush_ms", pass.flush_ms, "ms");
    layer.push(
        "trace.overhead_pct",
        100.0 * (plain.rps / pass.rps - 1.0),
        "%",
    );
    Ok(())
}
