//! `netsim`: `run_net` on Algorithm 3′ (`alg3p`) over a 10%-lossy
//! network, binary wire codec, no event log — the only workload that
//! runs the simulator, the wire codec, the fault interpreter and the
//! calendar queue.

use crate::spans::Recorder;
use crate::{
    bytes_per, coloring_failures, fnv, int, peak_rss_kib, probe, rss_kib, text, timed, timed_setup,
    Rep, Scale, Work, FNV_BASIS,
};
use ftcolor_core::FastFiveColoringPatched;
use ftcolor_model::{inputs, ActivationSet, Execution, SubstrateReport, Topology};
use ftcolor_net::wire::{decode_frame, encode_frame_into};
use ftcolor_net::{
    draw_fate, run_net, Body, Codec, FaultPlan, Frame, FrameKind, NetConfig, NetReport, Outcome,
    SnapshotReq, SnapshotResp, WirePool, Write,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serde::Value;
use std::hint::black_box;

/// Colors of Algorithm 3′.
const PALETTE: u64 = 5;

/// Per-link drop probability.
const DROP: f64 = 0.10;

/// Frames in the wire probes' sample.
const PROBE_FRAMES: usize = 4096;

/// Ring size at `scale`.
pub fn ring_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40_000,
        Scale::Tiny => 200,
    }
}

/// FNV-1a over every delivery-trace entry's fields, in send order.
pub fn trace_digest(report: &NetReport<u64>) -> u64 {
    report.trace.entries.iter().fold(FNV_BASIS, |h, e| {
        let (tag, at) = match e.outcome {
            Outcome::Deliver { at } => (1, at),
            Outcome::Drop => (2, 0),
            Outcome::PartitionDrop => (3, 0),
        };
        let kind = match e.kind {
            FrameKind::Write => 1,
            FrameKind::SnapshotReq => 2,
            FrameKind::SnapshotResp => 3,
        };
        [
            e.seq,
            e.t,
            e.from as u64,
            e.to as u64,
            kind,
            tag,
            at,
            e.dup_at.map_or(0, |d| d + 1),
        ]
        .into_iter()
        .fold(h, fnv)
    })
}

/// One repetition of `netsim`.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Rep {
    let alg = FastFiveColoringPatched;
    let n = ring_size(scale);
    let (setup_s, (topo, ids, plan, cfg)) = timed_setup(|| {
        (
            Topology::cycle(n).expect("n >= 3"),
            inputs::random_permutation(n, seed),
            FaultPlan::lossy(DROP),
            NetConfig::new(seed).codec(Codec::Binary),
        )
    });
    let inputs = ids.clone();

    let rss_before = rss_kib();
    let mut rec = Recorder::new();
    let (report, wall_s) = if traced {
        let span = rec.open("net.sim");
        let report = run_net(&alg, &topo, inputs, &plan, &cfg);
        rec.close(span);
        (report, rec.total_ns("net.sim") as f64 / 1e9)
    } else {
        timed(|| run_net(&alg, &topo, inputs, &plan, &cfg))
    };
    let peak_kib = peak_rss_kib();

    let proper = topo.is_proper_partial_coloring(&report.outputs);
    let returned = report.all_correct_returned();
    let failed = coloring_failures(&report.outputs, PALETTE, |i| {
        report.crashed.iter().any(|p| p.index() == i)
    });
    let oracle_error = (!proper || !returned || failed > 0).then(|| {
        format!("netsim: proper={proper} all_correct_returned={returned} failed={failed}")
    });
    let stats = report.stats;
    let rounds: u64 = report.rounds.iter().sum();

    let mut layers = Vec::new();
    if traced {
        let wire = wire_probe(&alg, &topo, &ids, &report, seed);
        let draw_ns = draw_probe(&plan, n, seed);
        let w = report.wire;
        let run_ns = wall_s * 1e9;
        let attributed = wire.encode_ns * w.frames_encoded as f64
            + wire.decode_ns * w.frames_decoded as f64
            + draw_ns * stats.sent as f64;
        layers = vec![
            ("net.sim.run_s", wall_s),
            ("net.sim.sent", stats.sent as f64),
            ("net.sim.delivered", stats.delivered as f64),
            ("net.sim.dropped", stats.dropped as f64),
            ("net.sim.retransmits", stats.retransmits as f64),
            ("net.sim.logical_time", report.time as f64),
            (
                "net.sim.delivery_ratio",
                stats.delivered as f64 / stats.sent.max(1) as f64,
            ),
            (
                "net.sim.bytes_per_process",
                bytes_per(rss_before, peak_kib, n as u64),
            ),
            ("net.sim.residual_share_est", 1.0 - attributed / run_ns),
            ("net.wire.encode_ns", wire.encode_ns),
            ("net.wire.decode_ns", wire.decode_ns),
            (
                "net.wire.bytes_per_frame",
                w.bytes_on_wire as f64 / w.frames_encoded.max(1) as f64,
            ),
            (
                "net.wire.pool_hit_rate",
                w.pool_hits as f64 / (w.pool_hits + w.pool_misses).max(1) as f64,
            ),
            ("net.faults.draw_ns", draw_ns),
        ];
    }

    Rep {
        workload: "netsim",
        seed,
        traced,
        params: vec![
            ("algorithm", text("alg3p")),
            ("n", int(n as u64)),
            ("ids", text("random_permutation(n, seed)")),
            ("plan", text(format!("lossy({DROP})"))),
            ("codec", text(cfg.codec.name())),
            ("act_jitter", int(cfg.act_jitter)),
            ("rto", int(cfg.rto)),
            ("max_time", int(cfg.max_time)),
            ("record_events", Value::Bool(cfg.record_events)),
            ("jobs", int(1)),
        ],
        setup_s,
        wall_s,
        peak_rss_kib: peak_kib,
        ops: n as u64,
        failed,
        oracle_error,
        det: vec![
            (
                "trace_digest",
                text(format!("{:016x}", trace_digest(&report))),
            ),
            ("sent", int(stats.sent)),
            ("delivered", int(stats.delivered)),
            ("events", int(stats.events_processed)),
        ],
        work: Work {
            colorings: 1,
            configs: rounds,
            processes: n as u64,
            events: stats.events_processed,
        },
        layers,
        spans: rec.into_spans(),
    }
}

/// Median per-frame nanoseconds of the binary codec.
struct WireProbe {
    encode_ns: f64,
    decode_ns: f64,
}

/// Encodes and decodes a sample of frames in the run's frame-kind mix,
/// carrying register values of the workload's own ring (taken after two
/// synchronous steps of the model executor).
fn wire_probe(
    alg: &FastFiveColoringPatched,
    topo: &Topology,
    ids: &[u64],
    report: &NetReport<u64>,
    seed: u64,
) -> WireProbe {
    let n = topo.len();
    let mut exec = Execution::new(alg, topo, ids.to_vec());
    exec.step_with(&ActivationSet::All);
    exec.step_with(&ActivationSet::All);
    let mut kinds = [0u64; 3];
    for e in &report.trace.entries {
        kinds[e.kind as usize] += 1;
    }
    let total: u64 = kinds.iter().sum::<u64>().max(1);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x3f1e_c0de_5eed_0001);
    let frames: Vec<Frame> = (0..PROBE_FRAMES)
        .map(|_| {
            let src = rng.gen_range(0..n);
            let dest = (src + 1) % n;
            let round = rng.gen_range(0..8u64);
            let value = exec.registers()[rng.gen_range(0..n)]
                .as_ref()
                .expect("every register is written after a synchronous step")
                .to_value();
            let pick = rng.gen_range(0..total);
            let body = if pick < kinds[0] {
                Body::Write(Write { round, value })
            } else if pick < kinds[0] + kinds[1] {
                Body::SnapshotReq(SnapshotReq { round })
            } else {
                Body::SnapshotResp(SnapshotResp {
                    round,
                    value: Some(value),
                    stamp: round + 1,
                })
            };
            Frame { src, dest, body }
        })
        .collect();

    let mut pool = WirePool::default();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(PROBE_FRAMES);
    let encode_ns = probe::batched(9, PROBE_FRAMES, |i| {
        let mut buf = pool.acquire();
        encode_frame_into(&frames[i], &mut buf);
        pool.release(black_box(buf));
    });
    for f in &frames {
        let mut buf = Vec::new();
        encode_frame_into(f, &mut buf);
        encoded.push(buf);
    }
    let decode_ns = probe::batched(9, PROBE_FRAMES, |i| {
        black_box(decode_frame(&encoded[i]).expect("probe frames decode"));
    });
    WireProbe {
        encode_ns,
        decode_ns,
    }
}

/// Median nanoseconds of one `draw_fate` under the workload's plan.
fn draw_probe(plan: &FaultPlan, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    probe::batched(9, 1 << 16, |i| {
        black_box(draw_fate(plan, &mut rng, i as u64, i % n, (i + 1) % n));
    })
}
