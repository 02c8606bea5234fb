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

    // The pipe counters saw the traffic and the pool recycled its
    // buffers; a replay has no pipes.
    let s = &outcome.summary;
    assert!(s.wire_frames_encoded > 0 && s.wire_frames_decoded > 0 && s.wire_bytes > 0);
    assert!(s.wire_pool_hits > 0, "pool never recycled");
    assert_eq!((replayed.wire_frames_encoded, replayed.wire_bytes), (0, 0));
}

/// Every ring coloring in the registry runs on real processes: a clean
/// C5 decides a proper coloring inside the palette, and its journal
/// replays to the same verdict.
#[test]
fn every_ring_coloring_runs_and_replays_on_the_cluster() {
    use ftcolor::core::RING_COLORINGS;

    for name in RING_COLORINGS {
        let outcome =
            cluster::cluster_run(name, 5, 1, &FaultPlan::clean(), &opts().max_wall_ms(20_000))
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

/// `node_main` over in-memory streams: after a valid `init`, every
/// hostile frame is dropped without a reply — a garbage line, a value
/// nested deeper than the decoders' cap, a second `init`, frames from a
/// node that is not a neighbor, a `write` and a `snapshot_resp` whose
/// register does not decode, and a final line torn mid-object with no
/// newline. The node never panics, returns `Ok(())` at EOF, and its
/// output decodes line by line: `init_ok`, the round-0
/// `write`/`snapshot_req` pairs, and the answer to the one honest read. The undecodable response is dropped,
/// so round 0 never commits. A neighbor frame that arrives before
/// `init` is dropped the same way, and a first `init` that lists no
/// ring neighbors is refused.
#[test]
fn node_main_survives_hostile_streams() {
    use std::io::Cursor;

    use ftcolor::net::{Body, Frame, Init, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR};
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

    let run = |input: String| -> Vec<Frame> {
        let mut out = Vec::new();
        let res = cluster::node_main(Cursor::new(input.into_bytes()), &mut out);
        assert_eq!(res, Ok(()), "EOF ends the node cleanly");
        String::from_utf8(out)
            .expect("JSON output is UTF-8")
            .lines()
            .map(|l| Frame::decode(l).expect("each output line decodes"))
            .collect()
    };

    // One line per frame, with a garbage and a blank line among them,
    // then the honest read again, torn before its closing brace: were it
    // repaired, the node would answer it a second time.
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
    let torn = read.encode();
    json.push_str(&torn[..torn.len() - 1]);
    let frames = run(json);
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
        ]
    );
    assert!(
        frames.iter().all(|f| match &f.body {
            Body::Write(w) => w.round == 0,
            Body::SnapshotReq(r) => r.round == 0,
            _ => true,
        }),
        "round 0 committed on an undecodable response"
    );
    let Body::SnapshotResp(answer) = &frames[5].body else {
        unreachable!()
    };
    assert_eq!(answer.stamp, 1, "the read sees the round-0 write");

    // A neighbor frame routed before `init` is dropped, not fatal: the
    // node waits for its `init` and then joins the protocol.
    let early = format!(
        "{}\n{}\n",
        to0(1, write(0, Value::Null)).encode(),
        init.encode()
    );
    let frames = run(early);
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
    let res = cluster::node_main(input, Vec::new());
    assert!(res.is_err_and(|e| e.contains("neighbors")), "lonely init");
}
