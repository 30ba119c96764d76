//! Wire cost of the `adv-net` front door.
//!
//! The pipeline behind the engine is a no-op stub, so the numbers isolate
//! what the network path adds on top of in-process serving: frame
//! encode/CRC/decode, one loopback TCP roundtrip, and the server's
//! admission pipeline (auth lookup, token bucket, deadline bookkeeping).
//! `inprocess_submit` on the same engine config is the baseline to
//! subtract; the codec-only benchmark bounds the serialization share.

use adv_magnet::{DefensePipeline, DefenseScheme, PassReport, Verdict};
use adv_net::{
    ClientConfig, Frame, NetClient, NetServer, NetServerConfig, Reply, TenantPolicy, TenantSpec,
};
use adv_serve::{ServeConfig, ServeEngine};
use adv_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const KEY: u64 = 0xBEE5_BEE5_0000_0001;

/// Verdict arithmetic only — isolates the serving/wire overhead.
#[derive(Debug)]
struct NoopPipeline;

impl DefensePipeline for NoopPipeline {
    fn name(&self) -> &str {
        "noop"
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        _scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, PassReport)> {
        let n = x.shape().dims().first().copied().unwrap_or(0);
        Ok((
            (0..n).map(Verdict::Classified).collect(),
            PassReport::default(),
        ))
    }
}

fn engine() -> Arc<ServeEngine> {
    Arc::new(
        ServeEngine::start(
            Arc::new(NoopPipeline),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                max_wait: Duration::ZERO,
                ..ServeConfig::default()
            },
        )
        .expect("ServeEngine::start failed"),
    )
}

fn input() -> Tensor {
    Tensor::from_fn(Shape::new(vec![1, 8, 8]), |i| (i % 23) as f32 / 23.0)
}

fn bench_net_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_roundtrip");

    let x = input();
    let request = Frame::Request {
        id: 1,
        deadline_ms: 0,
        route: 0,
        sample: 0,
        variant: 0,
        dims: vec![1, 8, 8],
        data: x.as_slice().to_vec(),
    };
    g.bench_function("frame_encode_decode_8x8", |b| {
        b.iter(|| {
            let bytes = black_box(&request).encode();
            black_box(Frame::decode(&bytes).expect("Frame::decode failed"))
        })
    });

    let eng = engine();
    g.bench_function("inprocess_submit_8x8", |b| {
        b.iter(|| {
            let pending = eng.submit(black_box(x.clone())).expect("submit failed");
            black_box(pending.wait().expect("wait failed").verdict)
        })
    });

    let server = NetServer::start(
        eng.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            tenants: TenantPolicy::Static(vec![TenantSpec {
                tenant: 1,
                key: KEY,
                rate_per_sec: 1e9,
                burst: 1e9,
            }]),
            ..NetServerConfig::default()
        },
    )
    .expect("NetServer::start failed");
    let mut client =
        NetClient::connect(server.addr(), 1, KEY, ClientConfig::default()).expect("connect failed");
    g.bench_function("loopback_classify_8x8", |b| {
        b.iter(|| {
            match client
                .classify(black_box(&x), 0, 0, 0)
                .expect("classify failed")
            {
                Reply::Verdict { verdict, .. } => black_box(verdict),
                Reply::Busy { reason, .. } => panic!("refused: {reason}"),
            }
        })
    });

    drop(client);
    server.shutdown();
    g.finish();
}

criterion_group!(benches, bench_net_roundtrip);
criterion_main!(benches);
