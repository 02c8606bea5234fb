//! Simulator vs OS-thread vs message-passing vs real-process cluster:
//! the same algorithm objects run on every substrate, and every claim
//! that is schedule-independent (safety, palette, activation bounds)
//! must hold on each.
//!
//! The conformance matrix at the bottom drives {Alg1, Alg2-patched,
//! Alg3-patched} × {C5, C8} × {no-fault, 1-crash, lossy} × 4 seeds
//! through *all three* substrates and applies one shared invariant
//! oracle (via [`SubstrateReport`]) to each run — the threaded runtime
//! with `crash_after` plans and the network simulator with seeded fault
//! plans get no weaker checking than the abstract executor with
//! `CrashPlan` schedules. The lossy cell maps to each substrate's
//! native notion of adversity: a sparse random schedule on the
//! simulator, heavy jitter on threads, and 15% link loss on the
//! network. A fourth leg runs the matrix on the real-process cluster
//! substrate (crashes as SIGKILL); it spawns process rings, so it is
//! gated behind `FTCOLOR_CLUSTER_E2E=1`.

use ftcolor::checker::invariants::{theorem_3_1_bound, theorem_4_4_bound};
use ftcolor::core::PairColor;
use ftcolor::model::inputs;
use ftcolor::model::SubstrateReport;
use ftcolor::net::{run_net, FaultPlan, NetConfig};
use ftcolor::prelude::*;
use ftcolor::runtime::{run_threaded, RunOptions};
use serde::{Deserialize, Serialize};

#[test]
fn alg1_same_bounds_on_both_substrates() {
    let n = 20;
    let ids = inputs::random_permutation(n, 6);
    let topo = Topology::cycle(n).unwrap();

    let mut exec = Execution::new(&SixColoring, &topo, ids.clone());
    let sim = exec.run(RandomSubset::new(3, 0.5), 100_000).unwrap();
    assert!(topo.is_proper_partial_coloring(&sim.outputs));
    assert!(sim.max_activations() <= theorem_3_1_bound(n));

    let thr = run_threaded(
        &SixColoring,
        &topo,
        ids,
        &RunOptions::new().jitter(30).with_seed(3),
    );
    assert!(thr.all_returned());
    assert!(topo.is_proper_partial_coloring(&thr.outputs));
    assert!(thr.max_rounds() <= theorem_3_1_bound(n));
}

#[test]
fn alg3_logstar_bound_on_threads() {
    let n = 64;
    let ids = inputs::staircase_poly(n);
    let topo = Topology::cycle(n).unwrap();
    for seed in 0..3u64 {
        let thr = run_threaded(
            &FastFiveColoring,
            &topo,
            ids.clone(),
            &RunOptions::new().jitter(20).with_seed(seed),
        );
        assert!(thr.all_returned(), "seed {seed}");
        assert!(topo.is_proper_partial_coloring(&thr.outputs));
        assert!(thr.outputs.iter().flatten().all(|&c| c <= 4));
        assert!(
            thr.max_rounds() <= theorem_4_4_bound(n),
            "seed {seed}: {} rounds",
            thr.max_rounds()
        );
    }
}

#[test]
fn general_graph_coloring_on_threads() {
    let topo = Topology::grid(4, 4, true).unwrap();
    let ids = inputs::random_permutation(16, 2);
    let thr = run_threaded(
        &DeltaSquaredColoring,
        &topo,
        ids,
        &RunOptions::new().jitter(50).with_seed(9),
    );
    assert!(thr.all_returned());
    assert!(topo.is_proper_partial_coloring(&thr.outputs));
    assert!(thr.outputs.iter().flatten().all(|c| c.weight() <= 4));
}

// --------------------------------------------------------------------
// Conformance suite: one oracle, three substrates.
// --------------------------------------------------------------------

/// One cell's fault injection, mapped to each substrate's native form.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Fault-free run.
    None,
    /// Crash process `.0` after `.1` rounds (simulator: at time `.1`+1;
    /// network: at logical time 2·`.1`+1).
    Crash(usize, u64),
    /// Adversarial-but-fair conditions: sparse random schedule (sim),
    /// heavy jitter (threads), 15% link loss (network).
    Lossy,
}

/// The shared invariant oracle every substrate must satisfy:
/// * the partial output is a proper coloring;
/// * every color drawn is inside the algorithm's palette;
/// * every process that was NOT crashed returned an output (wait-freedom
///   — crashed processes may or may not have returned before the crash).
fn conformance_oracle<T: PartialEq + std::fmt::Debug>(
    label: &str,
    topo: &Topology,
    report: &dyn SubstrateReport<T>,
    palette_ok: &dyn Fn(&T) -> bool,
) {
    let outputs = report.outputs();
    assert!(
        topo.is_proper_partial_coloring(outputs),
        "{label}: improper partial coloring: {outputs:?}"
    );
    assert!(
        report.all_correct_returned(),
        "{label}: a non-crashed process never returned"
    );
    for p in topo.nodes() {
        if let Some(c) = &outputs[p.index()] {
            assert!(
                palette_ok(c),
                "{label}: {p} colored outside the palette: {c:?}"
            );
        }
    }
}

/// Runs one (algorithm, instance, fault, seed) cell of the matrix
/// through the simulator (a `CrashPlan` over a seeded random schedule),
/// the OS-thread runtime (`crash_after`/jitter), and the message-passing
/// network (a seeded `FaultPlan`), applying [`conformance_oracle`] to
/// all three runs.
fn conformance_case<A>(
    alg: &A,
    name: &str,
    topo: &Topology,
    ids: &[u64],
    seed: u64,
    fault: Fault,
    palette_ok: &dyn Fn(&A::Output) -> bool,
) where
    A: Algorithm<Input = u64> + Sync,
    A::State: Send,
    A::Reg: Send + Sync + Serialize + Deserialize,
    A::Output: Send + PartialEq + std::fmt::Debug,
{
    let n = topo.len();
    let label = format!("{name} on C{n} seed {seed} fault {fault:?}");

    // Simulator substrate.
    let mut exec = Execution::new(alg, topo, ids.to_vec());
    let (density, crashes) = match fault {
        Fault::None => (0.6, None),
        Fault::Crash(p, t) => (0.6, Some((ProcessId(p), t + 1))),
        Fault::Lossy => (0.3, None),
    };
    let sched = CrashPlan::new(RandomSubset::new(seed, density), crashes);
    let report = exec
        .run(sched, 1_000_000)
        .unwrap_or_else(|e| panic!("{label} (sim): {e:?}"));
    conformance_oracle(&format!("{label} (sim)"), topo, &report, palette_ok);

    // Threaded substrate.
    let mut opts = RunOptions::new().with_seed(seed);
    opts = match fault {
        Fault::None => opts.jitter(15),
        Fault::Crash(p, rounds) => opts.jitter(15).crash(p, rounds),
        Fault::Lossy => opts.jitter(40),
    };
    let thr = run_threaded(alg, topo, ids.to_vec(), &opts);
    assert!(thr.capped.is_empty(), "{label} (thr): processes capped");
    conformance_oracle(&format!("{label} (thr)"), topo, &thr, palette_ok);

    // Message-passing substrate.
    let plan = match fault {
        Fault::None => FaultPlan::clean(),
        Fault::Crash(p, rounds) => FaultPlan::default().with_crash(p, 2 * rounds + 1),
        Fault::Lossy => FaultPlan::lossy(0.15),
    };
    let net = run_net(alg, topo, ids.to_vec(), &plan, &NetConfig::new(seed));
    conformance_oracle(&format!("{label} (net)"), topo, &net, palette_ok);
}

/// {Alg1, Alg2-patched, Alg3-patched} × {C5, C8} × {no-fault, 1-crash,
/// lossy} × 4 seeds, the same oracle on all three substrates.
#[test]
fn conformance_matrix_on_all_three_substrates() {
    for &n in &[5usize, 8] {
        let topo = Topology::cycle(n).unwrap();
        for seed in 0..4u64 {
            let ids = inputs::random_unique(n, 10_000, seed);
            let one_crash = Fault::Crash((seed as usize + n) % n, 2 + seed % 3);
            for fault in [Fault::None, one_crash, Fault::Lossy] {
                conformance_case(
                    &SixColoring,
                    "alg1",
                    &topo,
                    &ids,
                    seed,
                    fault,
                    &|c: &PairColor| c.weight() <= 2,
                );
                conformance_case(
                    &FiveColoringPatched,
                    "alg2p",
                    &topo,
                    &ids,
                    seed,
                    fault,
                    &|&c: &u64| c <= 4,
                );
                conformance_case(
                    &FastFiveColoringPatched,
                    "alg3p",
                    &topo,
                    &ids,
                    seed,
                    fault,
                    &|&c: &u64| c <= 4,
                );
            }
        }
    }
}

/// The fourth leg: the same {algorithm} × {C5, C8} × {clean, crash,
/// lossy} matrix on the real-process cluster substrate — every ring
/// node its own OS process, crashes delivered as SIGKILL. Spawning
/// dozens of process rings is slow and needs the `ftcolor` binary, so
/// the leg is gated:
///
/// ```text
/// FTCOLOR_CLUSTER_E2E=1 cargo test --test cross_substrate
/// ```
///
/// Two seeds (not four) keep the gated leg under a minute; inputs come
/// from the ring-coloring registry (`RingColoring::ring_inputs`), which
/// matches the matrix above for alg1/alg2p and uses the staircase family
/// for alg3p. Each live run's journal must also replay cleanly — the
/// recorded trace is the reproducible artifact, so an unreplayable run
/// is a failure even when its coloring is proper.
#[test]
fn conformance_matrix_on_cluster_substrate() {
    use ftcolor::cluster::{self, ClusterOptions};

    if std::env::var_os("FTCOLOR_CLUSTER_E2E").is_none() {
        eprintln!("skipping cluster leg: set FTCOLOR_CLUSTER_E2E=1 to run it");
        return;
    }
    let node_cmd = std::path::PathBuf::from(env!("CARGO_BIN_EXE_ftcolor"));
    for &n in &[5usize, 8] {
        for seed in 0..2u64 {
            let one_crash = Fault::Crash((seed as usize + n) % n, 2 + seed % 3);
            for fault in [Fault::None, one_crash, Fault::Lossy] {
                let plan = match fault {
                    Fault::None => FaultPlan::clean(),
                    Fault::Crash(p, rounds) => FaultPlan::default().with_crash(p, 2 * rounds + 1),
                    Fault::Lossy => FaultPlan::lossy(0.15),
                };
                for name in ["alg1", "alg2p", "alg3p"] {
                    let label = format!("{name} on C{n} seed {seed} fault {fault:?} (cluster)");
                    let opts = ClusterOptions::default()
                        .pace_ms(10)
                        .node_cmd(node_cmd.clone());
                    let outcome = cluster::cluster_run(name, n, seed, &plan, &opts)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let s = &outcome.summary;
                    assert!(!s.timed_out, "{label}: hit the wall-clock cap");
                    assert!(s.valid, "{label}: improper coloring {:?}", s.colors);
                    assert!(s.palette_ok, "{label}: color outside the palette");
                    assert!(
                        s.all_correct_returned,
                        "{label}: live nodes stalled: {:?}",
                        s.stalled
                    );
                    let replayed = cluster::cluster_replay(&outcome.trace)
                        .unwrap_or_else(|e| panic!("{label}: journal replay: {e}"));
                    assert_eq!(replayed.colors, s.colors, "{label}: replay diverged");
                    assert_eq!(replayed.crashed, s.crashed, "{label}: replay diverged");
                }
            }
        }
    }
}

#[test]
fn renaming_on_threads_names_are_distinct() {
    use ftcolor::core::renaming::RankRenaming;
    let n = 6;
    let topo = Topology::clique(n).unwrap();
    for seed in 0..5u64 {
        let ids = inputs::random_unique(n, 100_000, seed);
        let thr = run_threaded(
            &RankRenaming,
            &topo,
            ids,
            &RunOptions::new().jitter(10).with_seed(seed),
        );
        assert!(thr.all_returned(), "seed {seed}");
        let mut names: Vec<u64> = thr.outputs.iter().flatten().copied().collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "seed {seed}: duplicate names");
        assert!(names.iter().all(|&s| s <= 2 * n as u64 - 2));
    }
}

// --------------------------------------------------------------------
// Cross-codec conformance: the wire codec is transport, not semantics.
// --------------------------------------------------------------------

/// The netsim summary is fully deterministic, so the cross-codec claim
/// can be made at full strength: for the same (alg, n, seed, plan)
/// cell, the pretty-printed summary JSON under `--codec binary` is
/// **byte-identical** to the `--codec json` run once the flat `wire_*`
/// stat lines — the only codec-variant fields, by construction — are
/// stripped, exactly as the CI diff does with `grep -v '"wire_'`.
#[test]
fn cross_codec_netsim_summaries_are_byte_identical() {
    use ftcolor::analyze::net_run;
    use ftcolor::net::Codec;

    let strip_wire = |summary: &ftcolor::analyze::NetSummary| -> String {
        serde_json::to_string_pretty(summary)
            .expect("summary serializes")
            .lines()
            .filter(|l| !l.contains("\"wire_"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut plan = FaultPlan::lossy(0.1).with_crash(2, 5);
    plan.duplicate = 0.05;
    for (alg, n, seed) in [("alg3p", 16usize, 3u64), ("alg2p", 8, 7), ("alg1", 5, 0)] {
        let [json, bin] = [Codec::Json, Codec::Binary].map(|codec| {
            let cfg = NetConfig::new(seed).codec(codec);
            net_run(alg, n, seed, &plan, &cfg).expect("registry cell")
        });
        let label = format!("{alg} n={n} seed={seed}");

        assert_eq!(
            strip_wire(&json.summary),
            strip_wire(&bin.summary),
            "{label}: binary summary diverged from json"
        );
        // The trace itself (not just its digest) is codec-independent.
        assert_eq!(
            json.trace, bin.trace,
            "{label}: binary delivery trace diverged"
        );
        // And the stripped fields moved the way the codec promises:
        // binary strictly smaller than JSON.
        assert!(bin.summary.wire_bytes < json.summary.wire_bytes, "{label}");
    }
}
