//! Smoke tests for the `ftcolor` CLI binary: each subcommand runs,
//! produces the expected markers, and exits cleanly.

use std::process::Command;

use ftcolor::net::trace::fnv1a;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftcolor"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn color_subcommand_produces_a_proper_coloring() {
    for alg in ["alg1", "alg2", "alg2p", "alg3", "alg3p"] {
        let (stdout, stderr, ok) = run(&[
            "color", "--alg", alg, "--n", "10", "--input", "random", "--sched", "random", "--seed",
            "3",
        ]);
        assert!(ok, "{alg}: {stderr}");
        assert!(stdout.contains("proper: true"), "{alg}: {stdout}");
        assert!(stdout.contains("coloring:"), "{alg}: {stdout}");
    }
}

#[test]
fn color_with_timeline_renders_steps() {
    let (stdout, _, ok) = run(&[
        "color",
        "--alg",
        "alg3",
        "--n",
        "6",
        "--input",
        "staircase",
        "--sched",
        "sync",
        "--timeline",
    ]);
    assert!(ok);
    assert!(stdout.contains("activated"), "{stdout}");
    assert!(stdout.contains("←"), "return marker missing: {stdout}");
}

#[test]
fn modelcheck_finds_the_alg2_livelock() {
    let (stdout, _, ok) = run(&["modelcheck", "--alg", "alg2", "--ids", "0,1,2"]);
    assert!(ok);
    assert!(stdout.contains("livelock"), "{stdout}");
    assert!(stdout.contains("safety=ok"), "{stdout}");
}

#[test]
fn modelcheck_certifies_alg1_clean() {
    let (stdout, _, ok) = run(&["modelcheck", "--alg", "alg1", "--ids", "0,1,2"]);
    assert!(ok);
    assert!(stdout.contains("livelock=none"), "{stdout}");
}

#[test]
fn fuzz_runs_and_reports() {
    let (stdout, _, ok) = run(&[
        "fuzz",
        "--alg",
        "alg2p",
        "--ids",
        "0,1,2",
        "--generations",
        "20",
    ]);
    assert!(ok);
    assert!(stdout.contains("best score"), "{stdout}");
}

#[test]
fn modelcheck_prints_a_shrunk_witness() {
    let (stdout, _, ok) = run(&[
        "modelcheck",
        "--alg",
        "alg2",
        "--ids",
        "0,1,2",
        "--jobs",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("shrunk witness"), "{stdout}");
    assert!(stdout.contains("-- cycle --"), "{stdout}");
}

#[test]
fn shrink_round_trips_through_the_fixture_format() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/eager_mis_c4_violation.json"
    );
    let dir = std::env::temp_dir().join(format!("ftcolor-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let min1 = dir.join("min1.json");
    let min2 = dir.join("min2.json");

    // Shrink the committed fixture (self-describing: no --alg/--ids).
    let (stdout, stderr, ok) = run(&["shrink", "--in", fixture, "--out", min1.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("class: safety"), "{stdout}");
    assert!(stdout.contains("activation slots:"), "{stdout}");

    // The output is itself valid shrink input, and re-shrinking is a
    // no-op (idempotent local minimum).
    let (stdout2, stderr2, ok2) = run(&[
        "shrink",
        "--in",
        min1.to_str().unwrap(),
        "--out",
        min2.to_str().unwrap(),
    ]);
    assert!(ok2, "{stderr2}");
    assert!(stdout2.contains("class: safety"), "{stdout2}");
    let a = std::fs::read_to_string(&min1).unwrap();
    let b = std::fs::read_to_string(&min2).unwrap();
    assert_eq!(a, b, "re-shrinking a minimal fixture must be a no-op");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shrink_accepts_bare_witnesses_with_explicit_instance() {
    let dir = std::env::temp_dir().join(format!("ftcolor-shrink-bare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bare = dir.join("bare.json");
    // A bare safety violation (no schema wrapper): the EagerMis In/In
    // witness, written by hand.
    std::fs::write(
        &bare,
        r#"{"description": "adjacent In/In on edge p0-p1",
            "schedule": [{"Only": [0]}, {"Only": [1]}, {"Only": [0, 1]}]}"#,
    )
    .unwrap();
    let (stdout, stderr, ok) = run(&[
        "shrink",
        "--in",
        bare.to_str().unwrap(),
        "--alg",
        "eagermis",
        "--ids",
        "5,9,2,1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("class: safety"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shrink_rejects_non_reproducing_input() {
    let dir = std::env::temp_dir().join(format!("ftcolor-shrink-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        r#"{"description": "nothing", "schedule": [{"Only": [0]}]}"#,
    )
    .unwrap();
    // alg2p never violates safety, so this witness cannot reproduce.
    let (_, stderr, ok) = run(&[
        "shrink",
        "--in",
        bad.to_str().unwrap(),
        "--alg",
        "alg2p",
        "--ids",
        "0,1,2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("does not reproduce"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_fail_gracefully() {
    let (_, stderr, ok) = run(&["color", "--alg", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --alg"), "{stderr}");
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn retired_flags_are_rejected() {
    let modelcheck = ["modelcheck", "--alg", "alg2", "--ids", "0,1,2"].as_slice();
    let shrink = [
        "shrink",
        "--in",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/eager_mis_c4_violation.json"
        ),
    ]
    .as_slice();
    for (cmd, flag, value) in [
        (modelcheck, "--extmem", "/nonexistent"),
        (modelcheck, "--bloom", "1024"),
        (shrink, "--jobs", "2"),
        (["cluster"].as_slice(), "--codec", "binary"),
        (["node"].as_slice(), "--codec", "json"),
        (["netsim"].as_slice(), "--codec", "binary"),
        (["certify"].as_slice(), "--domain-colors", "5"),
    ] {
        let (stdout, stderr, ok) = run(&[cmd, &[flag, value]].concat());
        assert!(!ok, "{} {flag} must be refused: {stdout}", cmd[0]);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn misspelled_flags_are_rejected() {
    let (stdout, stderr, ok) = run(&[
        "modelcheck",
        "--alg",
        "alg1",
        "--ids",
        "0,1,2",
        "--max-config",
        "5",
    ]);
    assert!(!ok, "a misspelled cap must not explore: {stdout}");
    assert!(stderr.contains("unknown flag --max-config"), "{stderr}");
    let (_, stderr, ok) = run(&["netsim", "--codecs", "binary"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --codecs"), "{stderr}");
    // A flag another subcommand accepts is still unknown here.
    let (_, stderr, ok) = run(&["color", "--symmetry"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --symmetry"), "{stderr}");
}

#[test]
fn unknown_formats_are_rejected() {
    for cmd in "modelcheck analyze certify netsim serve cluster".split_whitespace() {
        let mut args = vec![cmd, "--alg", "alg1", "--format", "xml"];
        if cmd == "modelcheck" {
            args.extend(["--ids", "0,1,2"]);
        }
        let (stdout, stderr, ok) = run(&args);
        assert!(!ok, "{cmd} --format xml must be refused: {stdout}");
        assert!(stderr.contains("unknown --format `xml`"), "{cmd}: {stderr}");
    }
}

#[test]
fn every_modelcheck_flag_is_accepted() {
    let (stdout, stderr, ok) = run(&[
        "modelcheck",
        "--alg",
        "alg2",
        "--ids",
        "0,1,2,3",
        "--max-configs",
        "50",
        "--jobs",
        "2",
        "--symmetry",
        "--por",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"truncated\": true"), "{stdout}");
    assert!(!stdout.contains("lossy"), "{stdout}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"), "{stdout}");
}

#[test]
fn netsim_runs_clean_and_reports_text() {
    let (stdout, stderr, ok) = run(&["netsim", "--alg", "alg2p", "--n", "8", "--seed", "1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("valid=true"), "{stdout}");
    assert!(stdout.contains("returned=true"), "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");
}

#[test]
fn netsim_json_is_deterministic_under_faults() {
    let args = [
        "netsim",
        "--alg",
        "alg1",
        "--n",
        "8",
        "--seed",
        "5",
        "--faults",
        r#"{"drop":0.15,"delay_max":4,"crashes":[{"node":3,"at":4}]}"#,
        "--format",
        "json",
        "--emit-trace",
    ];
    let (a, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    assert!(a.contains("\"valid\": true"), "{a}");
    assert!(a.contains("\"trace\""), "no trace emitted: {a}");
    let (b, _, ok2) = run(&args);
    assert!(ok2);
    assert_eq!(a, b, "same seed + plan must be byte-identical");
}

#[test]
fn netsim_all_covers_the_registry() {
    let (stdout, stderr, ok) = run(&[
        "netsim", "--alg", "all", "--n", "5", "--seed", "1", "--format", "json",
    ]);
    assert!(ok, "{stderr}");
    // All 12 registry entries appear, including the documented-flaw
    // exhibit (reported, oracle `termination-only`, never a failure).
    for name in [
        "alg1",
        "alg2",
        "alg2p",
        "alg3",
        "alg3p",
        "alg4",
        "cv",
        "renaming",
        "mis-localmax",
        "mis-eager",
        "mis-impatient",
        "decoupled-ring",
    ] {
        assert!(stdout.contains(&format!("\"{name}\"")), "{name} missing");
    }
    assert_eq!(
        fnv1a(stdout.as_bytes()),
        0x5f0a_f934_d35e_982e,
        "netsim JSON drifted"
    );
    // One faulty plan: every entry still returns.
    let (stdout, stderr, ok) = run(&[
        "netsim",
        "--alg",
        "all",
        "--n",
        "5",
        "--seed",
        "1",
        "--format",
        "json",
        "--faults",
        r#"{"drop":0.1,"delay_max":4,"duplicate":0.05}"#,
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        fnv1a(stdout.as_bytes()),
        0x1552_4f32_394b_90d0,
        "faulty netsim JSON drifted"
    );
}

#[test]
fn netsim_rejects_unknown_algorithms_and_bad_plans() {
    let (_, stderr, ok) = run(&["netsim", "--alg", "nope", "--n", "5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --alg"), "{stderr}");
    let (_, stderr, ok) = run(&["netsim", "--alg", "alg1", "--faults", "{not json"]);
    assert!(!ok);
    assert!(stderr.contains("bad --faults"), "{stderr}");
    // Too small a ring is its own error, not an unknown algorithm.
    let (_, stderr, ok) = run(&["netsim", "--alg", "alg1", "--n", "2"]);
    assert!(!ok);
    assert!(stderr.contains("netsim needs --n >= 3"), "{stderr}");
}

#[test]
fn analyze_refuses_sizes_below_three() {
    for args in [
        &["analyze", "--sizes", "2"][..],
        &["analyze", "--alg", "alg1", "--sizes", "2"],
        &["analyze", "--alg", "alg1", "--sizes", "5,0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ftcolor"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("bad --sizes"), "{args:?}: {stderr}");
        assert!(stderr.contains("sizes >= 3"), "{args:?}: {stderr}");
        assert!(!stderr.contains("unknown --alg"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn ids_that_do_not_color_the_cycle_are_rejected() {
    for cmd in [
        &["modelcheck", "--alg", "alg1", "--ids", "5,5,7"][..],
        &["color", "--alg", "alg1", "--ids", "5,5,7"],
        &[
            "fuzz",
            "--alg",
            "alg1",
            "--ids",
            "5,5,7",
            "--generations",
            "2",
        ],
    ] {
        let (stdout, stderr, ok) = run(cmd);
        assert!(!ok, "{cmd:?} must be refused: {stdout}");
        assert!(
            stderr.contains("bad --ids: neighbors at positions 0 and 1 share id 5"),
            "{cmd:?}: {stderr}"
        );
    }
    // The wrap-around edge counts too.
    let (_, stderr, ok) = run(&["color", "--alg", "alg2", "--ids", "4,1,2,4"]);
    assert!(!ok);
    assert!(stderr.contains("positions 3 and 0 share id 4"), "{stderr}");
    // Repeats between non-neighbors are a proper coloring.
    let (stdout, stderr, ok) = run(&["modelcheck", "--alg", "alg2", "--ids", "0,1,0,1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("safety=ok"), "{stdout}");
}

#[test]
fn shrink_rejects_fixtures_whose_ids_do_not_color_the_cycle() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/eager_mis_c4_violation.json"
    );
    let mut fx: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(fixture).unwrap()).unwrap();
    let serde::Value::Object(pairs) = &mut fx else {
        panic!("fixtures are objects")
    };
    let ids = pairs.iter_mut().find(|(k, _)| k.as_str() == "ids").unwrap();
    ids.1 = serde_json::from_str("[5, 9, 9, 1]").unwrap();
    let dir = std::env::temp_dir().join(format!("ftcolor-shrink-ids-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_ids.json");
    std::fs::write(&bad, serde_json::to_string(&fx).unwrap()).unwrap();
    let (_, stderr, ok) = run(&["shrink", "--in", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        stderr.contains("bad fixture ids: neighbors at positions 1 and 2 share id 9"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_fault_plans_are_rejected() {
    for (plan, want) in [
        (r#"{"crashes":[{"node":99,"at":5}]}"#, "crash names node 99"),
        (
            r#"{"partitions":[{"start":0,"end":5,"side":[99]}]}"#,
            "partition side names node 99",
        ),
        (r#"{"drop":1.5}"#, "drop = 1.5"),
        (r#"{"drop":-1}"#, "drop = -1"),
        (
            r#"{"delay_min":5,"delay_max":2}"#,
            "delay_min 5 exceeds delay_max 2",
        ),
    ] {
        let (stdout, stderr, ok) = run(&["netsim", "--alg", "alg1", "--n", "8", "--faults", plan]);
        assert!(!ok, "{plan} must be refused: {stdout}");
        assert!(
            stderr.contains(&format!("bad --faults: {want}")),
            "{stderr}"
        );
    }
    // The cluster refuses before spawning a single node.
    let (_, stderr, ok) = run(&[
        "cluster",
        "--alg",
        "alg2p",
        "--n",
        "5",
        "--faults",
        r#"{"crashes":[{"node":5,"at":1}]}"#,
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("bad --faults: crash names node 5, but the network has 5 nodes"),
        "{stderr}"
    );
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::process::Stdio;
    // The reader closes the pipe before the first line is written, so
    // every write of the command meets a closed stdout.
    for args in [
        &[
            "modelcheck",
            "--alg",
            "alg2p",
            "--ids",
            "0,1,2,3,4",
            "--symmetry",
            "--por",
            "--max-configs",
            "2000",
            "--format",
            "json",
        ][..],
        &["modelcheck", "--alg", "alg2", "--ids", "0,1,2"][..],
        &["color", "--alg", "alg3", "--n", "6", "--timeline"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ftcolor"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
}

/// Tampered copies of the golden cluster journal are refused with a
/// message naming the offending entry, never panicked on and never
/// accepted: a `snapshot_resp` whose register does not decode, a
/// `write` whose register does not decode, and a forged `snapshot_req`
/// to a node that is not the sender's neighbor — plus an `init` that
/// lists no ring neighbors for an algorithm that steps on exactly two.
#[test]
fn hostile_cluster_journals_are_refused() {
    use ftcolor::cluster::{cluster_replay, ClusterEntry, ClusterTrace, SendFate};
    use ftcolor::net::{Body, Frame, SnapshotReq};
    use serde::Value;

    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/cluster_alg2p_c5_crash.json"
    );
    let golden = ClusterTrace::from_json(&std::fs::read_to_string(fixture).expect("fixture"))
        .expect("fixture decodes");
    // A copy of the golden journal whose delivery `seq` carries `value`
    // as its register payload.
    let tamper = |seq: usize, value: Value| {
        let mut trace = golden.clone();
        match &mut trace.entries[seq] {
            ClusterEntry::Deliver { frame, .. } => match &mut frame.body {
                Body::SnapshotResp(r) => r.value = Some(value),
                Body::Write(w) => w.value = value,
                other => panic!("entry {seq} carries no register: {other:?}"),
            },
            other => panic!("entry {seq} is not a delivery: {other:?}"),
        }
        trace
    };
    let bad_resp = tamper(55, Value::String("garbage".into()));
    let bad_write = tamper(
        31,
        Value::Object(vec![("x".into(), Value::String("no".into()))]),
    );
    // Node 0's neighbors on C5 are 4 and 1: a retransmit to node 2 is
    // no honest node's.
    let mut forged = golden.clone();
    forged.entries.insert(
        26,
        ClusterEntry::Send {
            seq: 0,
            ms: 17,
            fate: SendFate::Delivered,
            dup: false,
            frame: Frame {
                src: 0,
                dest: 2,
                body: Body::SnapshotReq(SnapshotReq { round: 0 }),
            },
        },
    );
    for (i, entry) in forged.entries.iter_mut().enumerate() {
        let (ClusterEntry::Send { seq, .. }
        | ClusterEntry::Deliver { seq, .. }
        | ClusterEntry::Crash { seq, .. }) = entry;
        *seq = i as u64;
    }

    let mut bad_init = golden.clone();
    bad_init.alg = "alg3p".into();
    match &mut bad_init.entries[0] {
        ClusterEntry::Deliver { frame, .. } => match &mut frame.body {
            Body::Init(init) => init.neighbors.clear(),
            other => panic!("entry 0 is not an init: {other:?}"),
        },
        other => panic!("entry 0 is not a delivery: {other:?}"),
    }

    let dir = std::env::temp_dir().join(format!("ftcolor-hostile-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, trace, seq) in [
        ("bad_resp", bad_resp, 55),
        ("bad_write", bad_write, 31),
        ("forged_req", forged, 26),
        ("bad_init", bad_init, 0),
    ] {
        let err = cluster_replay(&trace).expect_err(name);
        assert!(err.contains(&format!("seq {seq}")), "{name}: {err}");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, trace.to_json_pretty()).expect("write journal");
        let out = Command::new(env!("CARGO_BIN_EXE_ftcolor"))
            .args(["cluster", "--replay", path.to_str().expect("utf-8 path")])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("error:"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every ring coloring runs under every single-algorithm subcommand
/// that takes one (`fuzz --alg alg1` included), on tiny instances.
#[test]
fn every_ring_coloring_runs_under_every_subcommand() {
    let tiny: [&[&str]; 4] = [
        &["color", "--n", "5"],
        &["modelcheck", "--ids", "0,1,2", "--max-configs", "5000"],
        &["fuzz", "--ids", "0,1,2", "--generations", "2"],
        &["serve", "--n", "5", "--instances", "20"],
    ];
    for alg in ftcolor::core::RING_COLORINGS {
        for args in tiny {
            let mut cmd = args.to_vec();
            cmd.extend(["--alg", alg]);
            let (stdout, stderr, ok) = run(&cmd);
            assert!(ok, "{cmd:?} failed: {stderr}\n{stdout}");
        }
    }
}

/// One message for an unknown ring-coloring name, whichever subcommand
/// is asked.
#[test]
fn unknown_ring_colorings_get_one_message() {
    let dir = std::env::temp_dir().join(format!("ftcolor-unknown-alg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bare = dir.join("bare.json");
    std::fs::write(
        &bare,
        r#"{"description": "nothing", "schedule": [{"Only": [0]}]}"#,
    )
    .unwrap();
    let want = "unknown --alg `nope` (expected one of alg1, alg2, alg2p, alg3, alg3p)";
    for args in [
        &["color"][..],
        &["modelcheck", "--ids", "0,1,2"],
        &["fuzz", "--ids", "0,1,2", "--generations", "2"],
        &["shrink", "--in", bare.to_str().unwrap(), "--ids", "0,1,2"],
        &["serve", "--instances", "20"],
        &["cluster"],
    ] {
        let mut cmd = args.to_vec();
        cmd.extend(["--alg", "nope"]);
        let (_, stderr, ok) = run(&cmd);
        assert!(!ok, "{cmd:?} must be refused");
        assert!(stderr.contains(want), "{cmd:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_out_of_range_probabilities() {
    for (flag, value) in [
        ("--p", "2"),
        ("--p", "-1"),
        ("--p", "nan"),
        ("--crash-prob", "1.5"),
        ("--crash-prob", "-0.5"),
        ("--crash-prob", "nan"),
    ] {
        let (stdout, stderr, ok) = run(&["serve", "--instances", "10", flag, value]);
        assert!(!ok, "{flag} {value} must be refused: {stdout}");
        assert!(
            stderr.contains(&format!("{flag} = "))
                && stderr.contains("is not a probability in [0, 1]"),
            "{flag} {value}: {stderr}"
        );
    }
    let (_, stderr, ok) = run(&[
        "serve",
        "--instances",
        "10",
        "--p",
        "1",
        "--crash-prob",
        "0",
    ]);
    assert!(ok, "the closed interval's ends are probabilities: {stderr}");
}
