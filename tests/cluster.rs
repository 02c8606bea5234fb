//! Robustness tests of the real-process cluster substrate: the
//! properties that only mean something when the nodes are genuine OS
//! processes. A SIGKILLed node's register must stay readable by its
//! neighbors (the substrate's memory outlives the process, as the
//! paper's crash model requires); every child the orchestrator spawns
//! must be reaped on every exit path, including panic (no zombies, no
//! orphans); and a wedged node must make the orchestrator *time out*,
//! never hang.

use std::path::PathBuf;

use ftcolor::cluster::{self, run_cluster, ChildGuard, ClusterOptions};
use ftcolor::core::FiveColoringPatched;
use ftcolor::model::{inputs, SubstrateReport};
use ftcolor::net::FaultPlan;

/// The `ftcolor` binary, built by cargo for this test run: both the
/// node command and the long-running child for the reaping tests.
fn ftcolor_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ftcolor"))
}

fn opts() -> ClusterOptions {
    ClusterOptions::default().node_cmd(ftcolor_bin())
}

/// `true` when `pid` is currently a child of *this* process according
/// to procfs — i.e. not yet reaped (running or zombie). A reused pid
/// belonging to someone else does not count.
fn is_our_child(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // pid (comm) state ppid ... — comm may contain spaces, so parse
    // from the closing paren.
    let Some(rest) = stat.rsplit(')').next() else {
        return false;
    };
    let mut fields = rest.split_whitespace();
    let _state = fields.next();
    fields.next() == Some(std::process::id().to_string().as_str())
}

/// SIGKILL one node mid-run: its two neighbors must still decide,
/// because the orchestrator keeps serving the dead node's last written
/// register value from its cache — the crash takes the *process*, not
/// the shared memory.
#[test]
fn killed_nodes_register_stays_readable() {
    let n = 5;
    let victim = 2usize;
    let ids = inputs::random_unique(n, 10_000, 7);
    let plan = FaultPlan::default().with_crash(victim, 4);
    let report = run_cluster(
        &FiveColoringPatched,
        "alg2p",
        &ids,
        &plan,
        7,
        &opts().pace_ms(15),
    )
    .expect("cluster run");

    assert!(!report.timed_out, "run hit the wall-clock cap");
    assert_eq!(
        report.crashed.iter().map(|p| p.index()).collect::<Vec<_>>(),
        vec![victim]
    );
    // The register server died with the process; reads were served
    // from the router cache instead — and the value was really there.
    assert!(
        report.stats.served_dead_reads > 0,
        "no snapshot_req ever reached the dead node's cached register"
    );
    assert!(
        report.final_registers[victim].value().is_some(),
        "victim crashed before its first write — crash later"
    );
    // Wait-freedom: every live node (the neighbors above all) decided.
    assert!(report.all_correct_returned(), "a live node stalled");
    for i in (0..n).filter(|&i| i != victim) {
        assert!(report.outputs[i].is_some(), "node {i} never decided");
    }
}

/// After a normal run, every spawned child has been reaped: none of
/// the recorded pids is still a child (running *or zombie*) of this
/// process.
#[test]
fn children_are_reaped_after_a_run() {
    let ids = inputs::random_unique(5, 10_000, 3);
    let report = run_cluster(
        &FiveColoringPatched,
        "alg2p",
        &ids,
        &FaultPlan::clean(),
        3,
        &opts(),
    )
    .expect("cluster run");
    assert_eq!(report.child_pids.len(), 5);
    for &pid in &report.child_pids {
        assert!(!is_our_child(pid), "pid {pid} was never reaped");
    }
}

/// The guard reaps its child even when the orchestrating thread
/// *panics*: unwinding drops the guard, which kills and waits. A bare
/// `ftcolor node` blocks forever on stdin, so it is the perfect
/// would-be orphan.
#[test]
fn child_guard_reaps_on_panic() {
    let pid = {
        let result = std::panic::catch_unwind(|| {
            let child = std::process::Command::new(ftcolor_bin())
                .arg("node")
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn node");
            let guard = ChildGuard::new(child);
            let pid = guard.id();
            assert!(is_our_child(pid), "child should be alive while guarded");
            std::panic::panic_any(pid); // unwind with the guard live
        });
        *result
            .expect_err("closure panics")
            .downcast::<u32>()
            .unwrap()
    };
    assert!(
        !is_our_child(pid),
        "pid {pid} outlived the panic: ChildGuard did not reap it"
    );
}

/// A wedged node — alive but never initialized, so it answers nothing
/// — must trip the orchestrator's wall-clock cap, not hang it. The
/// run reports `timed_out`, the wedged node (and its starved peers)
/// count as stalled, and the oracle premise `all_correct_returned`
/// honestly fails.
#[test]
fn wedged_node_times_out_instead_of_hanging() {
    let wedged = 1usize;
    let ids = inputs::random_unique(5, 10_000, 11);
    let started = std::time::Instant::now();
    let report = run_cluster(
        &FiveColoringPatched,
        "alg2p",
        &ids,
        &FaultPlan::clean(),
        11,
        &opts().withhold_init(wedged).max_wall_ms(1_000),
    )
    .expect("cluster run");
    let elapsed = started.elapsed().as_millis();

    assert!(report.timed_out, "wedged run did not report a timeout");
    assert!(
        elapsed < 10_000,
        "orchestrator took {elapsed} ms against a 1000 ms cap"
    );
    assert!(
        report.stalled.iter().any(|p| p.index() == wedged),
        "wedged node missing from the stalled set: {:?}",
        report.stalled
    );
    assert!(report.crashed.is_empty(), "nobody was killed");
    assert!(!report.all_correct_returned());
    // And the cap still reaped everything.
    for &pid in &report.child_pids {
        assert!(!is_our_child(pid), "pid {pid} survived the timeout path");
    }
}

/// The recorded journal of a faulty live run is the reproducible
/// artifact: it must replay cleanly and land on the identical summary.
#[test]
fn live_trace_replays_to_the_same_verdict() {
    let plan = FaultPlan::default().with_crash(0, 3);
    let outcome =
        cluster::cluster_run("alg2p", 5, 42, &plan, &opts().pace_ms(15)).expect("cluster run");
    assert!(outcome.summary.valid && outcome.summary.palette_ok);

    let replayed = cluster::cluster_replay(&outcome.trace).expect("replay");
    assert_eq!(replayed.colors, outcome.summary.colors);
    assert_eq!(replayed.crashed, outcome.summary.crashed);
    assert_eq!(replayed.stalled, outcome.summary.stalled);
    assert_eq!(replayed.trace_digest, outcome.summary.trace_digest);
}

/// The binary wire codec is a pure transport swap: the same (alg, n,
/// seed, plan) cell run over length-prefixed binary pipes must land on
/// the same colors and fault verdicts as the JSON-lines run, its
/// journal must replay cleanly, and the frame-codec stats must show
/// binary actually carried the traffic (and in fewer bytes).
#[test]
fn binary_codec_matches_json_verdicts_and_replays() {
    use ftcolor::net::Codec;

    let plan = FaultPlan::default().with_crash(1, 3);
    let json = cluster::cluster_run("alg2p", 5, 9, &plan, &opts().pace_ms(15).codec(Codec::Json))
        .expect("json cluster run");
    let bin = cluster::cluster_run(
        "alg2p",
        5,
        9,
        &plan,
        &opts().pace_ms(15).codec(Codec::Binary),
    )
    .expect("binary cluster run");

    for s in [&json.summary, &bin.summary] {
        assert!(
            s.valid && s.palette_ok,
            "cell failed under {}",
            s.wire_codec
        );
        assert!(s.all_correct_returned, "a live node stalled");
    }
    // Colors are NOT compared across the two live runs: a process ring
    // races on wall clocks, so two runs of the same cell may settle on
    // different (both proper) colorings regardless of codec. The
    // codec-invariant facts are the verdicts above and the fault sets.
    assert_eq!(bin.summary.crashed, json.summary.crashed);
    assert_eq!(bin.summary.stalled, json.summary.stalled);

    // The codec label and the stats prove the bytes really went over
    // the binary framing, not a silent JSON fallback.
    assert_eq!(bin.summary.wire_codec, "binary");
    assert_eq!(json.summary.wire_codec, "json");
    assert!(bin.summary.wire_frames_encoded > 0);
    assert!(bin.summary.wire_frames_decoded > 0);
    assert!(
        bin.summary.wire_bytes < json.summary.wire_bytes,
        "binary ({}) should be smaller than JSON ({})",
        bin.summary.wire_bytes,
        json.summary.wire_bytes
    );
    assert!(bin.summary.wire_pool_hits > 0, "pool never recycled");

    // The journal stays codec-independent JSON: replay works unchanged.
    let replayed = cluster::cluster_replay(&bin.trace).expect("replay of binary-run journal");
    assert_eq!(replayed.colors, bin.summary.colors);
    assert_eq!(replayed.crashed, bin.summary.crashed);
    assert_eq!(replayed.trace_digest, bin.summary.trace_digest);
    assert_eq!(replayed.wire_codec, "none");
}

/// Every ring coloring in the registry runs on real processes: a clean
/// C5 over the binary codec decides a proper coloring inside the
/// palette, and its journal replays to the same verdict.
#[test]
fn every_ring_coloring_runs_and_replays_on_the_cluster() {
    use ftcolor::core::RING_COLORINGS;
    use ftcolor::net::Codec;

    for name in RING_COLORINGS {
        let outcome = cluster::cluster_run(
            name,
            5,
            1,
            &FaultPlan::clean(),
            &opts().codec(Codec::Binary).max_wall_ms(20_000),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = &outcome.summary;
        assert_eq!(s.alg, name);
        assert!(!s.timed_out, "{name}: hit the wall-clock cap");
        assert!(s.valid, "{name}: improper coloring {:?}", s.colors);
        assert!(s.palette_ok, "{name}: color outside the palette");
        let replayed =
            cluster::cluster_replay(&outcome.trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(replayed.colors, s.colors, "{name}: replay diverged");
        assert_eq!(replayed.crashed, s.crashed, "{name}: replay diverged");
        assert_eq!(replayed.trace_digest, s.trace_digest, "{name}");
    }
}

/// `node_main` over in-memory streams, in both codecs: after a valid
/// `init`, every hostile frame is dropped without a reply — a garbage
/// record, a value nested deeper than the decoders' cap, a second
/// `init`, frames from a node that is not a neighbor, and a `write` and
/// a `snapshot_resp` whose register does not decode — and a torn or
/// oversized binary record ends the stream like EOF. The node never
/// panics, returns `Ok(())` at EOF, and its output decodes frame by
/// frame: `init_ok`, the round-0 `write`/`snapshot_req` pairs, and the
/// answer to the one honest read. The undecodable response is dropped,
/// so round 0 never commits. A neighbor frame that arrives before
/// `init` is dropped the same way, and a first `init` that lists no
/// ring neighbors is refused.
#[test]
fn node_main_survives_hostile_streams() {
    use std::io::Cursor;

    use ftcolor::net::wire::{append_framed, decode_frame, read_framed};
    use ftcolor::net::{
        Body, Codec, Frame, Init, SnapshotReq, SnapshotResp, Write, MAX_FRAME_BYTES, ORCHESTRATOR,
    };
    use serde::{Number, Value};

    let init = Frame {
        src: ORCHESTRATOR,
        dest: 0,
        body: Body::Init(Init {
            node: 0,
            n: 5,
            alg: "alg2p".into(),
            input: 42,
            neighbors: vec![1, 4],
            rto_ms: 60_000,
            pace_ms: 0,
        }),
    };
    let to0 = |src: usize, body: Body| Frame { src, dest: 0, body };
    let write = |round, value| Body::Write(Write { round, value });
    let resp = |value, stamp| {
        Body::SnapshotResp(SnapshotResp {
            round: 0,
            value,
            stamp,
        })
    };
    let reg = Value::Object(
        ["x", "a", "b", "c"]
            .map(|k| (k.to_string(), Value::Number(Number::PosInt(7))))
            .to_vec(),
    );
    let nested = (0..200).fold(Value::Null, |v, _| Value::Array(vec![v]));
    let bad_reg = Value::Object(vec![("x".into(), Value::String("no".into()))]);
    let hostile = [
        to0(1, write(0, nested)),
        init.clone(),
        to0(2, write(0, reg.clone())),
        to0(2, resp(Some(reg), 1)),
        to0(1, write(0, Value::String("garbage".into()))),
        to0(4, resp(None, 0)),
        to0(1, resp(Some(bad_reg), 1)),
    ];
    let read = to0(1, Body::SnapshotReq(SnapshotReq { round: 0 }));

    let run = |codec: Codec, input: Vec<u8>| -> Vec<Frame> {
        let mut out = Vec::new();
        let res = cluster::node_main(codec, Cursor::new(input), &mut out);
        assert_eq!(res, Ok(()), "{codec:?}: EOF ends the node cleanly");
        match codec {
            Codec::Json => String::from_utf8(out)
                .expect("JSON output is UTF-8")
                .lines()
                .map(|l| Frame::decode(l).expect("each output line decodes"))
                .collect(),
            Codec::Binary => {
                let (mut cur, mut buf, mut frames) = (Cursor::new(out), Vec::new(), Vec::new());
                while read_framed(&mut cur, &mut buf).expect("well-framed output") {
                    frames.push(decode_frame(&buf).expect("each output record decodes"));
                }
                frames
            }
        }
    };
    let check = |codec: Codec, frames: &[Frame]| {
        let bodies: Vec<String> = frames
            .iter()
            .map(|f| format!("{}->{} {}", f.src, f.dest, f.body.kind()))
            .collect();
        assert_eq!(
            bodies,
            [
                "0->18446744073709551615 init_ok",
                "0->1 write",
                "0->1 snapshot_req",
                "0->4 write",
                "0->4 snapshot_req",
                "0->1 snapshot_resp",
            ],
            "{codec:?}"
        );
        assert!(
            frames.iter().all(|f| match &f.body {
                Body::Write(w) => w.round == 0,
                Body::SnapshotReq(r) => r.round == 0,
                _ => true,
            }),
            "{codec:?}: round 0 committed on an undecodable response"
        );
        let Body::SnapshotResp(answer) = &frames[5].body else {
            unreachable!()
        };
        assert_eq!(
            answer.stamp, 1,
            "{codec:?}: the read sees the round-0 write"
        );
    };

    // JSON: one line per frame, with a garbage line among them.
    let mut json = String::new();
    for f in std::iter::once(&init).chain(&hostile) {
        json.push_str(&f.encode());
        json.push('\n');
        if f.body.kind() == "init" {
            json.push_str("{not json\n\n");
        }
    }
    json.push_str(&read.encode());
    json.push('\n');
    check(Codec::Json, &run(Codec::Json, json.into_bytes()));

    // Binary: a record with an unknown version byte among them, then a
    // torn record at the end of the stream.
    let mut bin = Vec::new();
    for f in std::iter::once(&init).chain(&hostile).chain([&read]) {
        append_framed(f, &mut bin);
        if f.body.kind() == "init" {
            bin.extend_from_slice(&3u32.to_le_bytes());
            bin.extend_from_slice(&[0xff, 0, 0]);
        }
    }
    let mut torn = bin.clone();
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&[1; 10]);
    check(Codec::Binary, &run(Codec::Binary, torn));

    // Binary: a length prefix above the cap ends the stream; what
    // follows it is never read.
    let mut oversized = bin;
    oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    append_framed(&read, &mut oversized);
    check(Codec::Binary, &run(Codec::Binary, oversized));

    // A neighbor frame routed before `init` is dropped, not fatal: the
    // node waits for its `init` and then joins the protocol.
    let early = format!(
        "{}\n{}\n",
        to0(1, write(0, Value::Null)).encode(),
        init.encode()
    );
    let frames = run(Codec::Json, early.into_bytes());
    assert_eq!(
        frames.first().map(|f| f.body.kind()),
        Some("init_ok"),
        "a frame before `init` wedged the node"
    );

    // An `init` that does not describe a ring node is refused up front.
    let mut lonely = init;
    if let Body::Init(i) = &mut lonely.body {
        i.neighbors.clear();
    }
    let input = Cursor::new(format!("{}\n", lonely.encode()).into_bytes());
    let res = cluster::node_main(Codec::Json, input, Vec::new());
    assert!(res.is_err_and(|e| e.contains("neighbors")), "lonely init");
}
