//! Symmetry-reduction soundness suite: on `{Alg1, Alg2p} × {C3..C6}`,
//! exploring the orbit-quotient graph (`--symmetry`) must reach exactly
//! the verdicts of full exploration — same safety outcome, same livelock
//! outcome, same truncation — while never exploring *more*
//! configurations. Witness-producing algorithms (unpatched Algorithm 2,
//! the eager MIS strawman) additionally check that quotient-found
//! witnesses **de-canonicalize** to schedules that replay concretely on
//! the original, unrelabeled instance.
//!
//! Instances beyond exhaustive reach in debug builds run under a
//! configuration cap: both modes then report `truncated = true` and the
//! suite asserts the weaker (but still sound) verdict agreement on the
//! explored region. Algorithm 1 on C3–C5 and Algorithm 2 variants on
//! C3–C4 complete exhaustively.

use ftcolor::checker::{ModelCheckError, ModelCheckOutcome, ModelChecker};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::prelude::*;
use ftcolor_model::{Algorithm, Neighborhood, Step};

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

/// Verdict agreement between a full and a symmetry-reduced exploration.
fn assert_equal_verdicts<O: std::fmt::Debug>(
    full: &ModelCheckOutcome<O>,
    reduced: &ModelCheckOutcome<O>,
    label: &str,
) {
    assert_eq!(
        full.safety_violation.is_some(),
        reduced.safety_violation.is_some(),
        "{label}: safety verdict must survive the quotient"
    );
    assert_eq!(
        full.livelock.is_some(),
        reduced.livelock.is_some(),
        "{label}: livelock verdict must survive the quotient"
    );
    assert_eq!(
        full.truncated, reduced.truncated,
        "{label}: truncation must agree"
    );
    assert!(
        reduced.configs <= full.configs,
        "{label}: the quotient may never be larger ({} vs {})",
        reduced.configs,
        full.configs
    );
}

#[test]
fn alg1_verdicts_survive_the_quotient_on_c3_to_c6() {
    // C3..C5 complete exhaustively; C6 runs capped in both modes.
    for (n, cap) in [
        (3, usize::MAX),
        (4, usize::MAX),
        (5, usize::MAX),
        (6, 8_000),
    ] {
        let topo = Topology::cycle(n).unwrap();
        let ids: Vec<u64> = (0..n as u64).collect();
        let cap = cap.min(2_000_000);
        let full = ModelChecker::new(&SixColoring, &topo, ids.clone())
            .with_max_configs(cap)
            .explore(pair_safety)
            .unwrap();
        let reduced = ModelChecker::new(&SixColoring, &topo, ids)
            .with_symmetry(true)
            .with_max_configs(cap)
            .explore(pair_safety)
            .unwrap();
        assert_equal_verdicts(&full, &reduced, &format!("alg1/C{n}"));
        if !full.truncated {
            assert!(full.clean() && reduced.clean(), "alg1 is certified clean");
            // Exact worst-case rounds agree through the symmetry-aware DP.
            let w_full = ModelChecker::new(&SixColoring, &topo, (0..n as u64).collect())
                .exact_worst_case()
                .unwrap();
            let w_red = ModelChecker::new(&SixColoring, &topo, (0..n as u64).collect())
                .with_symmetry(true)
                .exact_worst_case()
                .unwrap();
            assert_eq!(w_full, w_red, "alg1/C{n} exact worst case");
        }
    }
}

#[test]
fn alg2p_verdicts_survive_the_quotient_on_c3_to_c6() {
    // The patched Algorithm 2 has an enormous finite state space even on
    // C3 — every size runs capped; verdicts on the explored region must
    // still agree (no violation, no livelock, truncated).
    for n in 3..=6usize {
        let topo = Topology::cycle(n).unwrap();
        let ids: Vec<u64> = (0..n as u64).collect();
        let full = ModelChecker::new(&FiveColoringPatched, &topo, ids.clone())
            .with_max_configs(6_000)
            .explore(coloring_safety)
            .unwrap();
        let reduced = ModelChecker::new(&FiveColoringPatched, &topo, ids)
            .with_symmetry(true)
            .with_max_configs(6_000)
            .explore(coloring_safety)
            .unwrap();
        assert!(full.truncated, "alg2p/C{n} should exceed the test cap");
        assert_eq!(full.safety_violation, None, "alg2p/C{n}");
        assert_eq!(reduced.safety_violation, None, "alg2p/C{n}");
        assert_eq!(full.livelock.is_some(), reduced.livelock.is_some());
        assert_eq!(full.truncated, reduced.truncated, "alg2p/C{n}");
    }
}

/// A deliberately view-order-*sensitive* algorithm that does not
/// certify [`Algorithm::relabel_view`]: its transition reads
/// `view.reg(0)` positionally, so relabeling configurations without a
/// state reindexing contract would be unsound — the checker must refuse.
struct PositionalProbe;

impl Algorithm for PositionalProbe {
    type Input = u64;
    type State = u64;
    type Reg = u64;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: u64) -> u64 {
        input
    }

    fn publish(&self, state: &u64) -> u64 {
        *state
    }

    fn step(&self, state: &mut u64, view: &Neighborhood<'_, u64>) -> Step<u64> {
        Step::Return(*state + view.reg(0).copied().unwrap_or(0))
    }
}

#[test]
fn uncertified_algorithms_are_refused_by_both_checkers() {
    // The guard runs before any exploration, so one and four workers
    // must refuse alike.
    let topo = Topology::cycle(3).unwrap();
    for jobs in [1, 4] {
        let err = ModelChecker::new(&PositionalProbe, &topo, vec![0, 1, 2])
            .with_symmetry(true)
            .with_jobs(jobs)
            .explore(|_, _| None)
            .unwrap_err();
        assert_eq!(
            err,
            ModelCheckError::SymmetryUncertifiedAlgorithm,
            "jobs={jobs}"
        );
    }
    // Without symmetry the same instance checks fine.
    let ok = ModelChecker::new(&PositionalProbe, &topo, vec![0, 1, 2])
        .explore(|_, _| None)
        .unwrap();
    assert!(ok.safety_violation.is_none());
}

#[test]
fn symmetric_inputs_genuinely_collapse_orbits() {
    // An input assignment invariant under rotation-by-2 on C4: the
    // quotient must be strictly smaller, with the livelock verdict of
    // the unpatched Algorithm 2 intact.
    let topo = Topology::cycle(4).unwrap();
    let full = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 0, 1])
        .explore(coloring_safety)
        .unwrap();
    let reduced = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 0, 1])
        .with_symmetry(true)
        .explore(coloring_safety)
        .unwrap();
    assert_equal_verdicts(&full, &reduced, "alg2/C4 symmetric");
    assert!(
        reduced.configs * 2 <= full.configs,
        "expected at least 2x state-count reduction, got {} vs {}",
        reduced.configs,
        full.configs
    );
    assert!(full.livelock.is_some() && reduced.livelock.is_some());
}

#[test]
fn decanonicalized_livelock_witness_replays_on_c3_and_c4() {
    for (n, ids) in [(3usize, vec![0u64, 1, 2]), (4, vec![0, 1, 2, 3])] {
        let topo = Topology::cycle(n).unwrap();
        let outcome = ModelChecker::new(&FiveColoring, &topo, ids.clone())
            .with_symmetry(true)
            .explore(coloring_safety)
            .unwrap();
        let lw = outcome.livelock.expect("alg2 livelock survives");
        let mut exec = Execution::new(&FiveColoring, &topo, ids.clone());
        for set in &lw.prefix {
            exec.step_with(set);
        }
        let probe = |e: &Execution<'_, FiveColoring>| {
            (0..n)
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
            "C{n}: the de-canonicalized cycle must return to the same concrete configuration"
        );
        assert!(activated, "C{n}: a livelock cycle activates someone");
        assert!(!exec.all_returned());
    }
}

#[test]
fn decanonicalized_safety_witness_replays_on_c4() {
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let full = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .explore(mis_violation)
        .unwrap();
    let reduced = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .with_symmetry(true)
        .explore(mis_violation)
        .unwrap();
    assert_equal_verdicts(&full, &reduced, "eagermis/C4");
    let v = reduced.safety_violation.expect("In/In violation survives");
    // The de-canonicalized schedule replays to a real violation on the
    // original instance, and the regenerated description names concrete
    // (unrelabeled) processes.
    let mut exec = Execution::new(&EagerMis, &topo, ids);
    for set in &v.schedule {
        exec.step_with(set);
    }
    let replayed = mis_violation(&topo, exec.outputs());
    assert!(replayed.is_some(), "schedule must reproduce the violation");
    assert_eq!(
        replayed.unwrap(),
        v.description,
        "description must match a concrete replay, not the canonical frame"
    );
}
