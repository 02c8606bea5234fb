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
//!
//! The orbit representative itself is pinned by a brute-force spec of
//! the election: every image built slot by slot through the executor,
//! the minimum taken under the documented order.

use ftcolor::checker::{CycleSymmetry, ModelCheckError, ModelCheckOutcome, ModelChecker};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::FiveColoringPatched;
use ftcolor::model::encode::{ConfigCodec, LanedRow, SlotEntry, LANE_PER_PROC, SLOTS_PER_PROC};
use ftcolor::model::inputs;
use ftcolor::prelude::*;
use ftcolor_model::{Algorithm, Neighborhood, Step};
use proptest::prelude::*;
use std::hash::Hash;

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

/// Checks [`CycleSymmetry::canonicalize_into`] at every configuration of
/// a random `steps`-step walk of `alg` on `C_n` against the election's
/// specification. For each of the `2n` automorphisms `g`, the test
/// builds the image in a scratch execution — process `i`'s state,
/// register and output moved to `g(i)`, the state view-swapped through
/// [`Algorithm::relabel_view`] where `g` flips the order of `i`'s
/// (sorted) neighbor list — and keys it slot by slot by (value hash,
/// packed index). The representative is the minimum key, ties to the
/// lowest `g`; the elected row, automorphism and hash must be that
/// image's, and the hash must equal [`ConfigCodec::hash_packed`] of the
/// row. Most steps activate one process, so walks run long before
/// everyone returns.
fn election_matches_brute_force<A: Algorithm>(
    alg: &A,
    n: usize,
    ids: Vec<A::Input>,
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let topo = Topology::cycle(n).unwrap();
    let sym = CycleSymmetry::for_topology(&topo).unwrap();
    let codec: ConfigCodec<A> = ConfigCodec::new(n);
    let mut exec = Execution::new(alg, &topo, ids);
    let mut scratch = exec.clone();
    let (mut node, mut plain) = (LanedRow::new(n, true), LanedRow::new(n, false));
    let mut out = vec![0u32; n * SLOTS_PER_PROC];
    let mut rng = seed;
    let mut draw = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    for _ in 0..steps {
        let mut best: Option<(Vec<SlotEntry>, u16, Vec<u32>, u64)> = None;
        for g in 0..sym.group_len() as u16 {
            let perm = sym.perm(g);
            for (i, &to) in perm.iter().enumerate() {
                let p = ProcessId(i);
                let mut state = exec.state(p).clone();
                let moved: Vec<u32> = topo.neighbors(p).iter().map(|q| perm[q.index()]).collect();
                if moved[0] > moved[1] {
                    prop_assert!(alg.relabel_view(&mut state, &[1, 0]));
                }
                let (reg, output) = (exec.register(p).cloned(), exec.outputs()[i].clone());
                scratch.restore_slot(ProcessId(to as usize), state, reg, output);
            }
            let image = codec.encode(&scratch);
            codec.entries_into(alg, &image.packed, image.hash, &mut plain);
            let keys: Vec<SlotEntry> = plain
                .lane()
                .chunks_exact(LANE_PER_PROC)
                .flat_map(|block| block[..SLOTS_PER_PROC].to_vec())
                .collect();
            if best.as_ref().is_none_or(|(min, ..)| keys < *min) {
                best = Some((keys, g, image.packed.to_vec(), image.hash));
            }
        }
        let (_, g, row, hash) = best.expect("the group is nonempty");

        let key = codec.encode(&exec);
        codec.entries_into(alg, &key.packed, key.hash, &mut node);
        let elected = match sym.canonicalize_into(&node, &mut out) {
            None => (key.packed.to_vec(), key.hash, 0),
            Some((hash, g)) => (out.clone(), hash, g),
        };
        prop_assert_eq!(&elected, &(row, hash, g));
        prop_assert_eq!(codec.hash_packed(&elected.0), hash);

        let working = exec.working().to_vec();
        if working.is_empty() {
            break;
        }
        let forced = working[draw() as usize % working.len()];
        let crowd = draw().is_multiple_of(4);
        exec.step_with(&ActivationSet::of(
            (0..n)
                .filter(|_| crowd && draw().is_multiple_of(2))
                .map(ProcessId)
                .chain([forced]),
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The election on random reachable rows of Algorithm 2′ (whose
    /// views are reindexed by the action) and Algorithm 1 (whose are
    /// not, so rotations and reflections tie on a slot more often) on
    /// `C3`–`C7`, with distinct identifiers and — on even cycles — with
    /// the alternating `0, 1, 0, 1, …`, whose configurations can be
    /// their own images, so whole images tie and the lowest `g` must win.
    #[test]
    fn the_election_is_the_brute_force_minimum(n in 3usize..8, idseed in 0u64..u64::MAX / 2, walk in 0u64..10_000) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        election_matches_brute_force(&FiveColoringPatched, n, ids.clone(), walk, 40)?;
        election_matches_brute_force(&SixColoring, n, ids, walk, 40)?;
        if n % 2 == 0 {
            let alternating: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
            election_matches_brute_force(&FiveColoringPatched, n, alternating.clone(), walk, 40)?;
            election_matches_brute_force(&SixColoring, n, alternating, walk, 40)?;
        }
    }
}
