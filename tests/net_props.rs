//! Property-based tests of the message-passing substrate: the JSON
//! codec is the identity on every message type, and a seeded fault plan
//! fully determines the run — same seed and plan means a byte-identical
//! delivery trace and the same coloring, including replay without the
//! RNG.

use ftcolor::model::{inputs, Topology};
use ftcolor::net::{
    replay_net, run_net, Body, DeliveryTrace, FaultPlan, Frame, FrameKind, NetConfig, Outcome,
    SnapshotReq, SnapshotResp, TraceEntry, Write,
};
use ftcolor::prelude::*;
use proptest::prelude::*;
use serde::{Number, Serialize, Value};

/// A representative register payload: the nested JSON shapes real
/// `A::Reg` serializations produce (objects of ints, nulls, bools).
fn payload(a: u64, b: u64, tag: bool) -> Value {
    Value::Object(vec![
        ("x".into(), Value::Number(Number::PosInt(a))),
        (
            "tentative".into(),
            if tag {
                Value::Number(Number::PosInt(b))
            } else {
                Value::Null
            },
        ),
        ("flag".into(), Value::Bool(tag)),
    ])
}

/// Arbitrary delivery-trace entries: any `u64` times and `seq`s, any
/// `u32` ids, drawn so that runs of near-monotone sends (the common
/// case the packed log's deltas favor) mix with wild jumps either way,
/// `seq`s that are not the index, and the extremes of every field.
struct Entries;

impl Strategy for Entries {
    type Value = Vec<TraceEntry>;

    fn generate(&self, rng: &mut proptest::TestRng) -> Vec<TraceEntry> {
        let len = (rng.next_u64() % 48) as usize;
        let mut t = 0u64;
        (0..len as u64)
            .map(|i| {
                let r = rng.next_u64();
                t = match r % 4 {
                    0 => wild(rng),
                    1 => t.wrapping_sub(r >> 60),
                    _ => t.wrapping_add(r >> 61),
                };
                let near = |rng: &mut proptest::TestRng| match rng.next_u64() % 3 {
                    0 => wild(rng),
                    _ => t.wrapping_add(rng.next_u64() % 9),
                };
                let outcome = match rng.next_u64() % 3 {
                    0 => Outcome::Deliver { at: near(rng) },
                    1 => Outcome::Drop,
                    _ => Outcome::PartitionDrop,
                };
                let dup_at = rng.next_u64().is_multiple_of(3).then(|| near(rng));
                let from = wild(rng) as u32;
                TraceEntry {
                    seq: if r.is_multiple_of(5) { wild(rng) } else { i },
                    t,
                    from,
                    to: match rng.next_u64() % 3 {
                        0 => wild(rng) as u32,
                        1 => from.wrapping_add(1),
                        _ => from.wrapping_sub(1),
                    },
                    kind: match rng.next_u64() % 3 {
                        0 => FrameKind::Write,
                        1 => FrameKind::SnapshotReq,
                        _ => FrameKind::SnapshotResp,
                    },
                    outcome,
                    dup_at,
                }
            })
            .collect()
    }
}

/// A value from one of: 0, small, near `u32::MAX`, near `u64::MAX`, or
/// any 64 bits.
fn wild(rng: &mut proptest::TestRng) -> u64 {
    let r = rng.next_u64();
    match r % 5 {
        0 => 0,
        1 => r >> 56,
        2 => u64::from(u32::MAX) - (r >> 60),
        3 => u64::MAX - (r >> 60),
        _ => rng.next_u64(),
    }
}

/// `a` with the field `pick` selects at entry `at` changed.
fn mutated(a: &[TraceEntry], at: usize, pick: u64) -> Vec<TraceEntry> {
    let mut b = a.to_vec();
    let e = &mut b[at];
    match pick % 7 {
        0 => e.seq ^= 1,
        1 => e.t = e.t.wrapping_add(1),
        2 => e.from ^= 1,
        3 => e.to = e.to.wrapping_sub(1),
        4 => {
            e.kind = match e.kind {
                FrameKind::Write => FrameKind::SnapshotReq,
                _ => FrameKind::Write,
            }
        }
        5 => {
            e.outcome = match e.outcome {
                Outcome::Deliver { at } => Outcome::Deliver { at: at ^ 1 },
                _ => Outcome::Deliver { at: e.t },
            }
        }
        _ => e.dup_at = e.dup_at.map_or(Some(e.t), |_| None),
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed log is a faithful store of any entries: they come
    /// back unchanged, the JSON is byte-identical to a
    /// `Vec<TraceEntry>`'s inside `{"entries":[…]}` and parses back,
    /// and two logs are equal exactly when their entries are.
    #[test]
    fn packed_trace_logs_keep_every_entry(
        (a, other, pick) in (Entries, Entries, 0u64..u64::MAX)
    ) {
        let trace: DeliveryTrace = a.iter().cloned().collect();
        prop_assert_eq!(trace.len(), a.len());
        prop_assert_eq!(trace.entries.iter().collect::<Vec<_>>(), a.clone());
        let json = trace.to_json();
        let vec_json = serde_json::to_string(&a).expect("entries encode");
        prop_assert_eq!(&json, &format!("{{\"entries\":{vec_json}}}"));
        let back: DeliveryTrace = serde_json::from_str(&json).expect("trace parses");
        prop_assert_eq!(&back, &trace);

        let b = match pick % 3 {
            0 => a.clone(),
            1 if !a.is_empty() => mutated(&a, (pick >> 8) as usize % a.len(), pick >> 2),
            _ => other,
        };
        let log_b: DeliveryTrace = b.iter().cloned().collect();
        prop_assert_eq!(trace == log_b, a == b);
    }

    /// `decode(encode(f)) == f` for every message type.
    #[test]
    fn codec_round_trip_is_identity(
        (src, dest, round, a, b) in (0usize..64, 0usize..64, 0u64..1_000, 0u64..u64::MAX / 2, 0u64..100)
    ) {
        let tag = a % 2 == 0;
        let frames = [
            Frame { src, dest, body: Body::Write(Write { round, value: payload(a, b, tag) }) },
            Frame { src, dest, body: Body::SnapshotReq(SnapshotReq { round }) },
            Frame {
                src,
                dest,
                body: Body::SnapshotResp(SnapshotResp {
                    round,
                    value: if tag { Some(payload(a, b, tag)) } else { None },
                    stamp: b,
                }),
            },
        ];
        for f in frames {
            let decoded = Frame::decode(&f.encode()).expect("round trip");
            prop_assert_eq!(&decoded, &f);
            // Encoding is itself deterministic (canonical field order).
            prop_assert_eq!(decoded.encode(), f.encode());
        }
    }

    /// Same seed + same fault plan ⇒ byte-identical delivery trace and
    /// identical coloring, even under drop/duplicate/reorder faults.
    #[test]
    fn seeded_fault_plan_is_deterministic(
        (n, seed, droppm, crash) in (4usize..12, 0u64..10_000, 0u64..250, 0usize..12)
    ) {
        let topo = Topology::cycle(n).unwrap();
        let ids = inputs::random_unique(n, 10_000, seed);
        let mut plan = FaultPlan::lossy(droppm as f64 / 1000.0);
        plan.duplicate = 0.05;
        plan.reorder = 0.1;
        let plan = plan.with_crash(crash % n, 3);
        let cfg = NetConfig::new(seed);

        let r1 = run_net(&FiveColoringPatched, &topo, ids.clone(), &plan, &cfg);
        let r2 = run_net(&FiveColoringPatched, &topo, ids.clone(), &plan, &cfg);
        prop_assert_eq!(r1.trace.to_json(), r2.trace.to_json());
        prop_assert_eq!(&r1.outputs, &r2.outputs);
        prop_assert_eq!(r1.time, r2.time);

        // Replay consumes the recorded trace instead of the RNG and must
        // land on the same outcome, echoing the trace byte for byte.
        let r3 = replay_net(&FiveColoringPatched, &topo, ids, &plan, &cfg, &r1.trace)
            .expect("a run's own trace replays");
        prop_assert_eq!(r1.trace.to_json(), r3.trace.to_json());
        prop_assert_eq!(&r1.outputs, &r3.outputs);
    }

    /// The fault-plan JSON codec round-trips, so recorded plans replay
    /// from disk with identical semantics.
    #[test]
    fn fault_plan_round_trips_through_json(
        (droppm, duppm, crash, at) in (0u64..500, 0u64..500, 0usize..16, 1u64..50)
    ) {
        let plan = FaultPlan::lossy(droppm as f64 / 1000.0)
            .with_crash(crash, at);
        let mut plan = plan;
        plan.duplicate = duppm as f64 / 1000.0;
        let json = serde_json::to_string(&plan).expect("plan encodes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan decodes");
        prop_assert_eq!(serde_json::to_string(&back).expect("re-encodes"), json);
    }
}

/// Non-proptest pin: two *different* seeds almost always produce
/// different traces under a lossy plan — the RNG actually reaches the
/// fault machinery (guards against a plan that silently no-ops).
#[test]
fn different_seeds_diverge_under_faults() {
    let topo = Topology::cycle(8).unwrap();
    let ids = inputs::random_unique(8, 10_000, 1);
    let plan = FaultPlan::lossy(0.2);
    let a = run_net(
        &FiveColoringPatched,
        &topo,
        ids.clone(),
        &plan,
        &NetConfig::new(1),
    );
    let b = run_net(&FiveColoringPatched, &topo, ids, &plan, &NetConfig::new(2));
    assert_ne!(a.trace.to_json(), b.trace.to_json());
    assert!(a.stats.dropped > 0 || b.stats.dropped > 0);
}

/// The serde derive used by `NetStats` must agree with the hand-rolled
/// summary serialization the CLI prints.
#[test]
fn stats_round_trip() {
    let topo = Topology::cycle(6).unwrap();
    let ids = inputs::random_unique(6, 10_000, 3);
    let rep = run_net(
        &SixColoring,
        &topo,
        ids,
        &FaultPlan::clean(),
        &NetConfig::new(3),
    );
    let v = rep.stats.to_value();
    let back: ftcolor::net::NetStats = serde_json::from_value(v).expect("stats decode");
    assert_eq!(back, rep.stats);
}
