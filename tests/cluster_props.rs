//! Property-based tests of the cluster substrate's wire layer: the
//! line-delimited frame codec is the identity on every message type
//! (including the control plane the real-process nodes speak), torn
//! and garbage lines are rejected rather than misparsed, and the
//! cluster trace / fault-plan JSON codecs round-trip so recorded runs
//! replay from disk with identical semantics.

use ftcolor::cluster::{ClusterEntry, ClusterTrace, SendFate, CLUSTER_TRACE_SCHEMA};
use ftcolor::net::{
    Body, Decide, FaultPlan, Frame, Init, InitOk, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Number, Value};

/// A representative register payload: the nested JSON shapes real
/// `A::Reg` serializations produce.
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

/// One frame of every message type the cluster wire carries.
fn all_frame_kinds(src: usize, dest: usize, round: u64, a: u64, b: u64) -> Vec<Frame> {
    let tag = a.is_multiple_of(2);
    vec![
        Frame {
            src,
            dest,
            body: Body::Write(Write {
                round,
                value: payload(a, b, tag),
            }),
        },
        Frame {
            src,
            dest,
            body: Body::SnapshotReq(SnapshotReq { round }),
        },
        Frame {
            src,
            dest,
            body: Body::SnapshotResp(SnapshotResp {
                round,
                value: tag.then(|| payload(a, b, tag)),
                stamp: b,
            }),
        },
        Frame {
            src,
            dest,
            body: Body::Init(Init {
                node: dest,
                n: 8,
                alg: "alg2p".to_string(),
                input: a,
                neighbors: vec![(dest + 7) % 8, (dest + 1) % 8],
                rto_ms: b,
                pace_ms: round,
            }),
        },
        Frame {
            src,
            dest,
            body: Body::InitOk(InitOk { node: src }),
        },
        Frame {
            src,
            dest,
            body: Body::Decide(Decide {
                round,
                output: Value::Number(Number::PosInt(a % 5)),
            }),
        },
    ]
}

/// The `init` the orchestrator sends node 0 of a 5-ring running
/// `alg2p`; its 60 s retransmit period never fires within a test.
fn valid_init() -> Init {
    Init {
        node: 0,
        n: 5,
        alg: "alg2p".into(),
        input: 42,
        neighbors: vec![1, 4],
        rto_ms: 60_000,
        pace_ms: 0,
    }
}

/// An `alg2p` register; when `hostile`, sometimes one of the wrong shape
/// or arrays nested past the decoders' depth cap of 128.
fn register(rng: &mut StdRng, hostile: bool) -> Value {
    let pick = if hostile { rng.gen_range(0..6) } else { 0 };
    let mut int = || Value::Number(Number::PosInt(rng.gen_range(0..8)));
    match pick {
        0..=2 => Value::Object(
            ["x", "a", "b", "c"]
                .map(|k| (k.to_string(), int()))
                .to_vec(),
        ),
        3 => Value::Array(vec![int(), Value::String("no".into())]),
        4 => int(),
        _ => (0..200).fold(Value::Null, |v, _| Value::Array(vec![v])),
    }
}

/// A frame of any kind to node 0 (now and then to another node), half
/// of them from a neighbor, the rest from a non-neighbor, an
/// out-of-range node or the orchestrator, mostly of an early round. An
/// `init` comes from the orchestrator only when `inits` is set.
fn hostile_frame(rng: &mut StdRng, inits: bool) -> Frame {
    let src = match rng.gen_range(0..12usize) {
        i @ 0..=5 => [1, 4][i % 2],
        i => [2, 3, 5, 99, usize::MAX - 1, ORCHESTRATOR][i - 6],
    };
    let dest = if rng.gen_bool(0.9) {
        0
    } else {
        rng.gen_range(1..7)
    };
    let round = [0, 0, 1, rng.gen_range(0..1_000), u64::MAX][rng.gen_range(0..5usize)];
    let body = match rng.gen_range(0..8) {
        0 => Body::Write(Write {
            round,
            value: register(rng, true),
        }),
        1 => Body::SnapshotReq(SnapshotReq { round }),
        2..=4 => Body::SnapshotResp(SnapshotResp {
            round,
            value: rng.gen_bool(0.8).then(|| register(rng, true)),
            stamp: rng.gen_range(0..3),
        }),
        5 => Body::InitOk(InitOk { node: src }),
        6 => Body::Decide(Decide {
            round,
            output: register(rng, true),
        }),
        _ => Body::Init(Init {
            input: rng.gen_range(0..100),
            neighbors: vec![rng.gen_range(0..9), rng.gen_range(0..9)],
            ..valid_init()
        }),
    };
    let src = match body {
        Body::Init(_) if !inits && src == ORCHESTRATOR => 99,
        _ => src,
    };
    Frame { src, dest, body }
}

/// Hostile bytes for the stream, a line or a few: a frame, a torn prefix
/// of one, random bytes (which may hold newlines), or both neighbors'
/// honest answers to an early round, so that some streams commit rounds
/// and decide.
fn hostile_item(rng: &mut StdRng, inits: bool) -> Vec<u8> {
    let frame = hostile_frame(rng, inits).encode().into_bytes();
    match rng.gen_range(0..6) {
        0..=2 => frame,
        3 => frame[..rng.gen_range(0..frame.len())].to_vec(),
        4 => (0..rng.gen_range(0..48))
            .map(|_| rng.gen_range(0..=255u8))
            .collect(),
        _ => {
            let round = rng.gen_range(0..3);
            let answers = [1, 4].map(|src| {
                let value = Some(register(rng, false));
                let body = Body::SnapshotResp(SnapshotResp {
                    round,
                    value,
                    stamp: round + 1,
                });
                Frame { src, dest: 0, body }.encode()
            });
            answers.join("\n").into_bytes()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(f)) == f` for every message type the node binary
    /// speaks, data plane and control plane alike, and encoding is
    /// canonical (a decoded frame re-encodes byte-identically).
    #[test]
    fn cluster_frame_codec_round_trip_is_identity(
        (src, dest, round, a, b) in (0usize..64, 0usize..64, 0u64..1_000, 0u64..u64::MAX / 2, 0u64..100)
    ) {
        for f in all_frame_kinds(src, dest, round, a, b) {
            let decoded = Frame::decode(&f.encode()).expect("round trip");
            prop_assert_eq!(&decoded, &f);
            prop_assert_eq!(decoded.encode(), f.encode());
        }
    }

    /// A line torn at any byte boundary — the failure mode of a node
    /// killed mid-write or a partial pipe read — must be *rejected*,
    /// never silently misparsed into a different frame.
    #[test]
    fn torn_lines_are_rejected_not_misparsed(
        (src, dest, round, a, b) in
            (0usize..16, 0usize..16, 0u64..100, 0u64..1_000, 0u64..50)
    ) {
        let kind = (a % 6) as usize;
        let frame = all_frame_kinds(src, dest, round, a, b).swap_remove(kind);
        let line = frame.encode();
        for cut in 1..line.len() {
            let torn = &line[..cut];
            if let Ok(reparsed) = Frame::decode(torn) {
                // A proper prefix of canonical JSON can only legally
                // parse if it encodes back to the full frame (it never
                // does for a strict codec, but equality is the actual
                // safety property the router relies on).
                prop_assert_eq!(reparsed, frame.clone(), "torn at {}", cut);
            }
        }
    }

    /// Garbage lines (non-JSON, wrong shapes, unknown tags) are decode
    /// errors, not frames.
    #[test]
    fn garbage_lines_are_rejected(noise_seed in 0u64..u64::MAX / 2) {
        // Printable-ASCII noise from a tiny LCG (the vendored proptest
        // shim has no string strategies).
        let mut x = noise_seed;
        let noise: String = (0..noise_seed % 40)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                char::from(b' ' + (x >> 57) as u8 % 95)
            })
            .collect();
        let garbage = [
            noise.as_str(),
            "{}",
            "[]",
            "42",
            r#"{"src":0}"#,
            r#"{"src":0,"dest":1,"body":{"type":"warble","round":1}}"#,
            r#"{"src":"zero","dest":1,"body":{"type":"snapshot_req","round":1}}"#,
        ];
        for g in garbage {
            if let Ok(frame) = Frame::decode(g) {
                // Free-form noise may accidentally be a valid frame
                // only if it truly encodes one — require the identity.
                let reencoded = frame.encode();
                prop_assert_eq!(reencoded.as_str(), g);
            }
        }
    }

    /// `node_main` over generated hostile streams: [`hostile_item`]s,
    /// the valid `init` (after them, so only non-orchestrator `init`s
    /// come before it: the first orchestrator `init` is the node's
    /// identity), more items, and a torn last line with no newline.
    ///
    /// The node never panics, ends at EOF with `Ok(())`, and speaks only
    /// as node 0 and only to its ring neighbors 1 and 4 or the
    /// orchestrator: a `snapshot_req` from anyone else goes unanswered.
    /// Its output is bounded by its input: `start` emits
    /// `init_ok` and a `write` and a `snapshot_req` per ring neighbor (5
    /// frames), and every later line at most one round start (4 frames,
    /// on a commit), one `decide` or one `snapshot_resp`, as the 60 s
    /// retransmit period never fires here: at most `5 + 4 × lines`.
    #[test]
    fn node_main_survives_generated_hostile_streams(seed in 0u64..u64::MAX / 2) {
        use std::io::Cursor;

        let mut rng = StdRng::seed_from_u64(seed);
        let init = Frame { src: ORCHESTRATOR, dest: 0, body: Body::Init(valid_init()) };
        let mut stream = Vec::new();
        let mut push = |line: &[u8]| {
            stream.extend_from_slice(line);
            stream.push(b'\n');
        };
        for _ in 0..rng.gen_range(0..12) {
            push(&hostile_item(&mut rng, false));
        }
        push(init.encode().as_bytes());
        for _ in 0..rng.gen_range(0..24) {
            push(&hostile_item(&mut rng, true));
        }
        let last = hostile_frame(&mut rng, true).encode();
        stream.extend_from_slice(&last.as_bytes()[..rng.gen_range(1..last.len())]);
        let lines = stream.split(|&b| b == b'\n').count();

        let mut out = Vec::new();
        let res = ftcolor::cluster::node_main(Cursor::new(stream), &mut out);
        prop_assert_eq!(res, Ok(()));
        let text = String::from_utf8(out).expect("JSON output is UTF-8");
        let frames: Vec<Frame> = text
            .lines()
            .map(|l| Frame::decode(l).expect("each output line decodes"))
            .collect();
        prop_assert!(frames.iter().all(|f| f.src == 0), "{}", text);
        prop_assert!(
            frames.iter().all(|f| [1, 4, ORCHESTRATOR].contains(&f.dest)),
            "{}",
            text
        );
        prop_assert!(frames.len() <= 5 + 4 * lines, "{} frames for {} lines", frames.len(), lines);
    }

    /// The fault-plan JSON codec round-trips with cluster-relevant
    /// fields (crashes become SIGKILLs on this substrate).
    #[test]
    fn cluster_fault_plan_round_trips_through_json(
        (droppm, duppm, crash, at) in (0u64..500, 0u64..500, 0usize..16, 1u64..50)
    ) {
        let mut plan = FaultPlan::lossy(droppm as f64 / 1000.0).with_crash(crash, at);
        plan.duplicate = duppm as f64 / 1000.0;
        let json = serde_json::to_string(&plan).expect("plan encodes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan decodes");
        prop_assert_eq!(serde_json::to_string(&back).expect("re-encodes"), json);
    }

    /// The trace container round-trips: a journal assembled from
    /// arbitrary entries survives `to_json` → `from_json` with its
    /// digest intact, and pretty-printing changes neither.
    #[test]
    fn cluster_trace_round_trips_through_json(
        (n, seed, a, b) in (3usize..9, 0u64..10_000, 0u64..1_000, 0u64..100)
    ) {
        let frames = all_frame_kinds(0, 1 % n, a % 7, a, b);
        let entries: Vec<ClusterEntry> = frames
            .into_iter()
            .enumerate()
            .map(|(i, frame)| {
                if i % 2 == 0 {
                    ClusterEntry::Send {
                        seq: i as u64,
                        ms: b + i as u64,
                        fate: SendFate::Delivered,
                        dup: false,
                        frame,
                    }
                } else {
                    ClusterEntry::Deliver { seq: i as u64, ms: b + i as u64, frame }
                }
            })
            .chain(std::iter::once(ClusterEntry::Crash {
                seq: 6,
                ms: b + 6,
                node: 2 % n,
            }))
            .collect();
        let trace = ClusterTrace {
            schema: CLUSTER_TRACE_SCHEMA.to_string(),
            alg: "alg2p".to_string(),
            n,
            seed,
            ids: (0..n as u64).map(|i| i * 17 + a).collect(),
            tick_ms: 5,
            plan: FaultPlan::lossy(0.1).with_crash(2 % n, 4),
            entries,
            outputs: (0..n).map(|i| Value::Number(Number::PosInt(i as u64 % 5))).collect(),
            crashed: vec![2 % n],
            stalled: vec![],
        };
        let back = ClusterTrace::from_json(&trace.to_json()).expect("decodes");
        prop_assert_eq!(back.to_json(), trace.to_json());
        prop_assert_eq!(back.digest(), trace.digest());
        let pretty = ClusterTrace::from_json(&trace.to_json_pretty()).expect("pretty decodes");
        prop_assert_eq!(pretty.digest(), trace.digest());
    }
}

/// Non-proptest pin: a trace stamped with a different schema string is
/// refused outright — replay never guesses at a foreign format.
#[test]
fn wrong_schema_is_refused() {
    let trace = ClusterTrace {
        schema: CLUSTER_TRACE_SCHEMA.to_string(),
        alg: "alg2p".to_string(),
        n: 3,
        seed: 0,
        ids: vec![1, 2, 3],
        tick_ms: 5,
        plan: FaultPlan::clean(),
        entries: vec![],
        outputs: vec![Value::Null, Value::Null, Value::Null],
        crashed: vec![],
        stalled: vec![],
    };
    let json = trace
        .to_json()
        .replace(CLUSTER_TRACE_SCHEMA, "ftcolor-cluster-trace/99");
    let err = ClusterTrace::from_json(&json).unwrap_err();
    assert!(err.contains("schema"), "unhelpful error: {err}");
}
