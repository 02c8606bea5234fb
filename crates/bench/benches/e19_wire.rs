//! E19 (wire codecs): the E14 netsim workload under json / binary
//! framing, plus a pure frame-level encode/decode microbench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftcolor_core::FastFiveColoringPatched;
use ftcolor_model::{inputs, Topology};
use ftcolor_net::{run_net, Body, Codec, FaultPlan, Frame, NetConfig, SnapshotResp, WirePool};
use serde::Value;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e19_wire");
    g.sample_size(10);

    for n in [1_000usize, 10_000] {
        let topo = Topology::cycle(n).unwrap();
        let xs = inputs::staircase_poly(n);
        let clean = FaultPlan::clean();
        for codec in [Codec::Json, Codec::Binary] {
            g.bench_with_input(BenchmarkId::new(codec.name(), n), &n, |b, _| {
                b.iter(|| {
                    run_net(
                        &FastFiveColoringPatched,
                        &topo,
                        xs.clone(),
                        &clean,
                        &NetConfig::new(7).codec(codec),
                    )
                });
            });
        }
    }
    g.finish();

    // Frame-level costs, no simulator: one representative
    // `snapshot_resp` (the biggest register-protocol frame) through
    // each byte codec's encode and decode.
    let mut g = c.benchmark_group("e19_frame");
    let int = |v: u64| Value::Number(serde::Number::PosInt(v));
    let reg = Value::Object(vec![
        ("x".into(), int(987_654_321)),
        ("r".into(), Value::String("Settled".into())),
        ("a".into(), int(3)),
        ("b".into(), int(4)),
        ("c".into(), int(5)),
    ]);
    let frame = Frame {
        src: 123_456,
        dest: 123_457,
        body: Body::SnapshotResp(SnapshotResp {
            round: 41,
            value: Some(reg),
            stamp: 42,
        }),
    };
    let mut pool = WirePool::default();
    g.bench_function("binary_encode", |b| {
        b.iter(|| {
            let mut buf = pool.acquire();
            ftcolor_net::wire::encode_frame_into(&frame, &mut buf);
            pool.release(buf);
        });
    });
    let mut bin = Vec::new();
    ftcolor_net::wire::encode_frame_into(&frame, &mut bin);
    g.bench_function("binary_decode", |b| {
        b.iter(|| ftcolor_net::wire::decode_frame(&bin).expect("round-trips"));
    });
    g.bench_function("json_encode", |b| {
        b.iter(|| serde_json::to_string(&frame).expect("encodes"));
    });
    let text = serde_json::to_string(&frame).expect("encodes");
    g.bench_function("json_decode", |b| {
        b.iter(|| serde_json::from_str::<Frame>(&text).expect("round-trips"));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
