//! The benchmark's own checks, on a size of each workload that runs in
//! milliseconds: oracles pass, deterministic fields repeat, another
//! seed changes them, traced runs agree with untraced ones, and the
//! traced fleet loop reproduces `run_service`.

use ftcolor_perfbench::spans::Recorder;
use ftcolor_perfbench::{explore, fleet, netsim, ring, Rep, Scale, DEFAULT_SEED};
use serde::Value;

const WORKLOADS: [&str; 4] = ["fleet", "explore", "ring", "netsim"];
const OTHER_SEED: u64 = 7;

fn run(workload: &str, seed: u64, traced: bool) -> Rep {
    match workload {
        "fleet" => fleet::run(seed, Scale::Tiny, traced),
        "explore" => explore::run(seed, Scale::Tiny, traced),
        "ring" => ring::run(seed, Scale::Tiny, traced),
        "netsim" => netsim::run(seed, Scale::Tiny, traced),
        other => panic!("unknown workload {other}"),
    }
}

fn assert_passes(rep: &Rep) {
    assert!(
        rep.oracle_error.is_none() && rep.failed == 0,
        "{}: {:?} ({} failed)",
        rep.workload,
        rep.oracle_error,
        rep.failed
    );
    assert!(rep.ops > 0, "{}", rep.workload);
    assert!(rep.wall_s > 0.0 && rep.setup_s > 0.0, "{}", rep.workload);
    assert!(rep.peak_rss_kib > 0, "{}", rep.workload);
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn names(v: &Value) -> Vec<String> {
    let Value::Array(items) = v else {
        panic!("not an array: {v:?}")
    };
    items
        .iter()
        .map(|m| match field(m, "name") {
            Value::String(s) => s.clone(),
            other => panic!("name is not a string: {other:?}"),
        })
        .collect()
}

#[test]
fn oracles_pass_and_deterministic_fields_repeat() {
    for w in WORKLOADS {
        let a = run(w, DEFAULT_SEED, false);
        let b = run(w, DEFAULT_SEED, false);
        assert_passes(&a);
        assert_passes(&b);
        assert_eq!(a.det, b.det, "{w}: deterministic fields must repeat");
        assert_eq!(a.work, b.work, "{w}: work done must repeat");
    }
}

#[test]
fn another_seed_changes_the_digests_and_still_passes() {
    for w in WORKLOADS {
        let a = run(w, DEFAULT_SEED, false);
        let b = run(w, OTHER_SEED, false);
        assert_passes(&b);
        assert_ne!(a.det, b.det, "{w}: the seed must change the outputs");
    }
}

#[test]
fn traced_runs_agree_with_untraced_and_report_declared_layers() {
    let spec: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared = names(field(&spec, "per_layer"));
    for w in WORKLOADS {
        let plain = run(w, DEFAULT_SEED, false);
        let traced = run(w, DEFAULT_SEED, true);
        assert_passes(&traced);
        assert_eq!(
            plain.det, traced.det,
            "{w}: tracing must not change outputs"
        );
        assert!(plain.layers.is_empty() && plain.spans.is_empty(), "{w}");
        assert!(!traced.layers.is_empty() && !traced.spans.is_empty(), "{w}");
        for (name, value) in &traced.layers {
            assert!(declared.iter().any(|d| d == name), "{w}: undeclared {name}");
            assert!(value.is_finite(), "{w}: {name} = {value}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_declared() {
    let spec: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared = names(field(&spec, "end_to_end"));
    for name in [
        "setup_s",
        "colorings_per_s",
        "configs_per_s",
        "processes_per_s",
        "events_per_s",
        "peak_rss_mib",
        "ops",
    ] {
        assert!(declared.iter().any(|d| d == name), "{name}");
    }
    assert_eq!(names(field(&spec, "workloads")), WORKLOADS);
}

#[test]
fn traced_fleet_loop_reproduces_run_service() {
    for seed in [DEFAULT_SEED, OTHER_SEED] {
        let cfg = fleet::config(seed, Scale::Tiny);
        let (plan, mut gen) = fleet::inputs(&cfg);
        let mut rec = Recorder::new();
        let (traced, trace) = fleet::traced_service(&cfg, &plan, &mut gen, &mut rec);
        let service = fleet::service(&cfg);
        assert!(service.valid, "{service:?}");
        assert_eq!(traced, service, "seed {seed}");
        assert_eq!(trace.latency_ns.len() as u64, service.completed);
        assert!(trace.peak_in_flight > 0 && trace.peak_in_flight <= cfg.instances);
        let sweeps = rec
            .spans()
            .iter()
            .filter(|s| s.name == "batch.engine.sweep")
            .count();
        assert_eq!(sweeps as u64, service.rounds, "one sweep span per round");
        let sunk: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == "batch.service.sink")
            .map(|s| s.count)
            .sum();
        assert_eq!(sunk, service.completed, "the sink saw every outcome");
    }
}

#[test]
fn explore_covers_every_ordering_once() {
    let orderings = explore::orderings();
    assert_eq!(orderings.len(), explore::ORDERINGS);
    // No two orderings are rotations or reflections of each other.
    let canon = |r: &[usize; 5]| {
        let mut best: Option<Vec<usize>> = None;
        for k in 0..5 {
            for rev in [false, true] {
                let v: Vec<usize> = (0..5)
                    .map(|i| {
                        if rev {
                            r[(k + 5 - i) % 5]
                        } else {
                            r[(k + i) % 5]
                        }
                    })
                    .collect();
                if best.as_ref().is_none_or(|b| v < *b) {
                    best = Some(v);
                }
            }
        }
        best.expect("ten candidates")
    };
    let mut seen: Vec<Vec<usize>> = orderings.iter().map(canon).collect();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), explore::ORDERINGS);
    assert_eq!(explore::instances(DEFAULT_SEED)[0], vec![0, 1, 2, 3, 4]);
}
