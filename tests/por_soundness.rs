//! Partial-order-reduction soundness suite: on
//! `{Alg1, Alg2p, Alg3p} × {C3..C5, P4}`, exploring the reduced graph
//! (`--por`) must reach exactly the verdicts of full exploration — same
//! safety outcome, same livelock outcome, same truncation — while never
//! exploring *more* configurations, across every mode combination
//! `{baseline, --por, --symmetry, --por --symmetry}`. Witness-producing
//! runs additionally check that reduced-run witnesses replay concretely
//! on the original instance. (That reduced runs are the same at every
//! worker count is checked in `tests/parallel_equivalence.rs`.)
//!
//! The gate itself is on trial too: the `PorLiar` mutant (which claims
//! a commutation certificate while smuggling state through a shared
//! atomic clock) must be refused by the dynamic probe at any worker
//! count, and algorithms without any certificate must be refused
//! statically.

use ftcolor::checker::{ModelCheckError, ModelCheckOutcome, ModelChecker};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::mutants::PorLiar;
use ftcolor::prelude::*;

fn pair_safety(topo: &Topology, outs: &[Option<PairColor>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|c| c.weight() > 2)
        .map(|c| format!("color {c} outside palette"))
}

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c > 4)
        .map(|c| format!("color {c} outside palette"))
}

/// Verdict agreement between a full and a reduced exploration: the
/// reduction may shrink the graph but never the conclusions.
fn assert_equal_verdicts<O: std::fmt::Debug>(
    full: &ModelCheckOutcome<O>,
    reduced: &ModelCheckOutcome<O>,
    label: &str,
) {
    assert_eq!(
        full.safety_violation.is_some(),
        reduced.safety_violation.is_some(),
        "{label}: safety verdict must survive the reduction"
    );
    assert_eq!(
        full.livelock.is_some(),
        reduced.livelock.is_some(),
        "{label}: livelock verdict must survive the reduction"
    );
    assert_eq!(
        full.truncated, reduced.truncated,
        "{label}: truncation must agree"
    );
    // Capped runs overshoot the cap by a mode-dependent handful of
    // configurations (the last expanding node admits all its children),
    // so the monotonicity claim is only meaningful for complete runs.
    if !full.truncated {
        assert!(
            reduced.configs <= full.configs,
            "{label}: the reduction may never be larger ({} vs {})",
            reduced.configs,
            full.configs
        );
    }
}

/// The `{baseline, por, sym, por+sym}` differential grid for one
/// algorithm on one topology. Symmetry modes are skipped on non-cycle
/// topologies (the checker refuses them by design).
macro_rules! differential_grid {
    ($alg:expr, $topo:expr, $ids:expr, $cap:expr, $safety:expr, $label:expr) => {{
        let topo = $topo;
        let ids: Vec<u64> = $ids;
        let is_cycle = topo.len() >= 3
            && topo.edges().filter(|(a, b)| a.index() != b.index()).count() == topo.len();
        let run = |por: bool, sym: bool| {
            ModelChecker::new($alg, &topo, ids.clone())
                .with_max_configs($cap)
                .with_por(por)
                .with_symmetry(sym)
                .explore($safety)
                .unwrap()
        };
        let baseline = run(false, false);
        let modes: Vec<(bool, bool)> = if is_cycle {
            vec![(true, false), (false, true), (true, true)]
        } else {
            vec![(true, false)]
        };
        for &(por, sym) in &modes {
            let label = format!("{} por={por} sym={sym}", $label);
            assert_equal_verdicts(&baseline, &run(por, sym), &label);
        }
        baseline
    }};
}

#[test]
fn alg1_verdicts_survive_por_on_cycles_and_the_path() {
    for n in 3..=5usize {
        let baseline = differential_grid!(
            &SixColoring,
            Topology::cycle(n).unwrap(),
            (0..n as u64).collect(),
            2_000_000,
            pair_safety,
            format!("alg1/C{n}")
        );
        assert!(!baseline.truncated, "alg1/C{n} completes exhaustively");
        assert!(baseline.clean(), "alg1 is certified clean");
    }
    let baseline = differential_grid!(
        &SixColoring,
        Topology::path(4).unwrap(),
        (0..4u64).collect(),
        2_000_000,
        pair_safety,
        "alg1/P4"
    );
    assert!(!baseline.truncated && baseline.clean());
}

#[test]
fn alg2p_verdicts_survive_por_under_truncation() {
    // The patched Algorithm 2 exceeds any debug-build cap even on C3:
    // every mode must agree on the (clean, truncated) verdict for the
    // explored region.
    for n in 3..=5usize {
        let baseline = differential_grid!(
            &FiveColoringPatched,
            Topology::cycle(n).unwrap(),
            (0..n as u64).collect(),
            6_000,
            coloring_safety,
            format!("alg2p/C{n}")
        );
        assert!(baseline.truncated, "alg2p/C{n} exceeds the test cap");
        assert!(baseline.safety_violation.is_none());
    }
    differential_grid!(
        &FiveColoringPatched,
        Topology::path(4).unwrap(),
        (0..4u64).collect(),
        6_000,
        coloring_safety,
        "alg2p/P4"
    );
}

#[test]
fn alg3p_verdicts_survive_por_under_truncation() {
    for n in 3..=5usize {
        let baseline = differential_grid!(
            &FastFiveColoringPatched,
            Topology::cycle(n).unwrap(),
            (0..n as u64).collect(),
            6_000,
            coloring_safety,
            format!("alg3p/C{n}")
        );
        assert!(baseline.safety_violation.is_none(), "alg3p/C{n}");
    }
    // No P4 leg here: Algorithm 3 reads exactly two neighbor registers
    // and asserts degree 2, so paths are outside its contract.
}

#[test]
fn por_actually_prunes_beyond_c3() {
    // On C3 every pair is adjacent, so nothing commutes and the reduced
    // family is the full family; from C4 on the reduction must bite.
    let topo3 = Topology::cycle(3).unwrap();
    let o3 = ModelChecker::new(&SixColoring, &topo3, vec![0, 1, 2])
        .with_por(true)
        .explore(pair_safety)
        .unwrap();
    assert_eq!(o3.stats.por_pruned_sets, 0, "C3 has no independent pairs");
    let topo5 = Topology::cycle(5).unwrap();
    let o5 = ModelChecker::new(&SixColoring, &topo5, vec![0, 1, 2, 3, 4])
        .with_por(true)
        .explore(pair_safety)
        .unwrap();
    assert!(o5.stats.por_pruned_sets > 0, "C5 must prune");
    let full5 = ModelChecker::new(&SixColoring, &topo5, vec![0, 1, 2, 3, 4])
        .explore(pair_safety)
        .unwrap();
    assert!(
        o5.edges < full5.edges,
        "pruning must shrink the edge relation ({} vs {})",
        o5.edges,
        full5.edges
    );
}

#[test]
fn por_livelock_witnesses_replay_concretely() {
    // The unpatched Algorithm 2 livelocks; the witness found under
    // --por --symmetry must replay on the raw, unreduced instance.
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![0u64, 1, 2, 3];
    let outcome = ModelChecker::new(&FiveColoring, &topo, ids.clone())
        .with_por(true)
        .with_symmetry(true)
        .explore(coloring_safety)
        .unwrap();
    let lw = outcome
        .livelock
        .expect("alg2 livelock survives --por --symmetry");
    let mut exec = Execution::new(&FiveColoring, &topo, ids);
    for set in &lw.prefix {
        exec.step_with(set);
    }
    let probe = |e: &Execution<'_, FiveColoring>| {
        (0..4)
            .map(|i| {
                (
                    *e.state(ProcessId(i)),
                    e.register(ProcessId(i)).cloned(),
                    e.outputs()[i],
                )
            })
            .collect::<Vec<_>>()
    };
    let before = probe(&exec);
    let mut activated = false;
    for set in &lw.cycle {
        activated |= !exec.step_with(set).is_empty();
    }
    assert_eq!(
        probe(&exec),
        before,
        "the composed de-canonicalized cycle must close concretely"
    );
    assert!(activated && !exec.all_returned());
}

#[test]
fn por_liar_is_refused_by_the_dynamic_gate_in_both_engines() {
    // The gate runs before any exploration, so one and four workers
    // must refuse alike.
    let topo = Topology::cycle(4).unwrap();
    for jobs in [1, 4] {
        let err = ModelChecker::new(&PorLiar::new(), &topo, vec![0, 1, 2, 3])
            .with_por(true)
            .with_jobs(jobs)
            .explore(|_, _| None)
            .unwrap_err();
        let ModelCheckError::PorCertificateViolation(why) = &err else {
            panic!("jobs={jobs}: expected a certificate violation, got {err:?}");
        };
        assert!(
            why.contains("do not commute"),
            "the probe must name the commutation failure: {why}"
        );
    }
    // Without --por the liar is a perfectly legal (if weird) algorithm.
    let ok = ModelChecker::new(&PorLiar::new(), &topo, vec![0, 1, 2, 3])
        .with_max_configs(5_000)
        .explore(|_, _| None)
        .unwrap();
    assert!(ok.safety_violation.is_none());
}

#[test]
fn uncertified_algorithms_are_refused_statically() {
    let topo = Topology::cycle(3).unwrap();
    let err = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2])
        .with_por(true)
        .explore(mis_violation)
        .unwrap_err();
    assert_eq!(err, ModelCheckError::PorUncertifiedAlgorithm);
}
