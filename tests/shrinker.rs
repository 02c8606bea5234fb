//! Integration tests for the counterexample shrinker: local minimality,
//! idempotence, class preservation, and robustness to injected schedule
//! noise.

use ftcolor::checker::{ModelChecker, SafetyViolation, Shrinker, Witness};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::FiveColoring;
use ftcolor::model::schedule::ActivationSet;
use ftcolor::model::{ProcessId, Topology};

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c > 4)
        .map(|c| format!("color {c} outside the palette"))
}

fn mis_witness() -> (Topology, Vec<u64>, SafetyViolation) {
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let v = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .explore(mis_violation)
        .unwrap()
        .safety_violation
        .expect("the In/In violation");
    (topo, ids, v)
}

/// Shrinking an already-minimal witness returns it unchanged.
#[test]
fn shrinking_is_idempotent() {
    let (topo, ids, v) = mis_witness();
    let sh = Shrinker::new(&EagerMis, &topo, ids);
    let once = sh.shrink_safety(&v.schedule, &mis_violation).unwrap();
    let twice = sh.shrink_safety(&once.schedule, &mis_violation).unwrap();
    assert_eq!(once.schedule, twice.schedule);
    assert_eq!(twice.stats.original_slots, twice.stats.shrunk_slots);
}

/// Junk appended to a real witness — a long synchronous tail after the
/// violating outputs are already fixed — is stripped away entirely: the
/// noisy witness shrinks to the same size as the clean one. (Prepended
/// noise is *not* neutral in this model: every activation publishes a
/// register its neighbors read, so the shrinker rightly treats it as
/// part of the execution.)
#[test]
fn tail_noise_around_a_witness_is_removed() {
    let (topo, ids, v) = mis_witness();
    let sh = Shrinker::new(&EagerMis, &topo, ids);
    let clean = sh.shrink_safety(&v.schedule, &mis_violation).unwrap();

    let mut noisy = v.schedule.clone();
    noisy.extend(std::iter::repeat_n(ActivationSet::All, 5));
    noisy.push(ActivationSet::of([ProcessId(2), ProcessId(3)]));
    let mut padded = v.schedule.clone();
    padded.extend(std::iter::repeat_n(ActivationSet::All, 40));
    for schedule in [&noisy, &padded] {
        let out = sh.shrink_safety(schedule, &mis_violation).unwrap();
        assert_eq!(
            out.stats.shrunk_slots,
            clean.stats.shrunk_slots,
            "{} steps: tail noise must not survive shrinking",
            schedule.len()
        );
    }
}

/// The livelock shrinker preserves the violation class: the shrunk
/// (prefix, cycle) still replays as a livelock, and it is strictly
/// smaller than the raw checker output on the canonical Alg2 C3 case.
#[test]
fn livelock_shrinks_strictly_and_stays_a_livelock() {
    let topo = Topology::cycle(3).unwrap();
    let ids = vec![0u64, 1, 2];
    let raw = ModelChecker::new(&FiveColoring, &topo, ids.clone())
        .explore(coloring_safety)
        .unwrap()
        .livelock
        .expect("the C3 livelock");
    let sh = Shrinker::new(&FiveColoring, &topo, ids);
    let out = sh.shrink_livelock(&raw).unwrap();
    assert!(out.stats.shrunk_slots < out.stats.original_slots);
    assert!(sh.reproduces(&Witness::Livelock(out.witness), &coloring_safety));
}

/// Bound-overrun shrinking keeps just enough schedule to exceed the
/// bound, and the result is minimal: one fewer synchronous step stops
/// exceeding it.
#[test]
fn overrun_witnesses_shrink_to_the_boundary() {
    let topo = Topology::cycle(3).unwrap();
    let ids = vec![0u64, 1, 2];
    let sh = Shrinker::new(&FiveColoring, &topo, ids);
    let sched = vec![ActivationSet::All; 8];
    for bound in [0u64, 1, 2, 3] {
        let out = sh
            .shrink_overrun(&sched, bound)
            .unwrap_or_else(|| panic!("8 synchronous steps exceed bound {bound}"));
        // The minimal overrun needs exactly bound+1 activations of some
        // process and nothing else from later steps.
        assert!(
            out.stats.shrunk_slots as u64 > bound,
            "bound {bound}: too few slots survived"
        );
        assert!(
            out.stats.shrunk_slots < out.stats.original_slots,
            "bound {bound}: nothing shrank"
        );
    }
}
