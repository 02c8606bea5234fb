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
        report.final_registers[victim].is_some(),
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
