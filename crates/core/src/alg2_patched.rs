//! A **candidate repair** of Algorithm 2's livelock (see
//! [`crate::alg2`]'s "Reproduction finding") — and an experimental map
//! of why repairing it is hard.
//!
//! ## The repair: counter-priority arbitration with a frozen-view escape
//!
//! The livelock is a parallel-recolor resonance: conflicting neighbors
//! recompute their candidates *simultaneously*, forever reacting to each
//! other. The patched algorithm leaves the paper's update **formulas**,
//! return rule, and palette untouched, adding only an arbitration that
//! decides *when* an update is applied:
//!
//! * every register additionally carries an **update counter** `c_p`,
//!   incremented whenever the process applies a change to `a` or `b`;
//! * a process may move a candidate only with **priority**: its pair
//!   `(c_p, X_p)` is lexicographically smaller than that of every awake
//!   neighbor whose published components collide with the candidate's
//!   current value. In a conflicting pair exactly one side moves, so the
//!   symmetric resonance cannot occur, and after moving the mover's
//!   counter rises, handing priority over;
//! * **frozen-view escape**: a process whose entire neighborhood reads
//!   exactly as it did at its previous activation waives arbitration and
//!   applies the paper's rule. This preserves wait-freedom against
//!   crashed or returned neighbors (whose frozen registers would hold
//!   priority forever): against a constant `C`, `b ← min N ∖ C` is
//!   collision-free one activation later.
//!
//! ## What is proved, what is checked, what is open
//!
//! * **No execution can revisit a configuration** (a real, if small,
//!   theorem): a configuration cycle applies no updates (counters are
//!   monotone and part of the configuration), so no register changes
//!   inside the cycle, so by each process's second activation in the
//!   cycle its view is frozen, so the escape clause applies the paper's
//!   update — which *must* change `b`, since a non-returning process has
//!   `b ∈ C` and `min N ∖ C ∉ C`. Contradiction. Hence the unpatched
//!   algorithm's failure mode — a finite livelock witness — **cannot
//!   exist** for the patched algorithm.
//! * **Checked**: safety is the paper's verbatim (palette `{0,…,4}`,
//!   proper outputs — the arbitration never changes *what* is written,
//!   only *when*); 8-million-configuration exhaustive searches on C3/C4
//!   find no violation and, necessarily, no cycle; every known adversary
//!   against the unpatched algorithm (the solo-then-lockstep C3 pattern,
//!   the C6 crash pattern, laggards, waves, random crash sweeps)
//!   terminates within small constant factors of the paper's bounds.
//! * **Open**: divergence without repetition ("infinite chatter", the
//!   counter growing forever) is not excluded by the no-revisit theorem,
//!   and because the counter is unbounded the reachable configuration
//!   space is not finite, so exhaustion cannot certify termination
//!   outright.
//!
//! ## Why not something simpler? (negative results, all machine-found)
//!
//! Experiment E6's checker refuted every bounded-memory variant we
//! tried, each within seconds:
//!
//! * *flip-back damping* (hold a candidate when the recomputation would
//!   restore the value it held before its last change, and the conflict
//!   comes from above): the adversary interleaves extra solo steps,
//!   producing a period-4 resonance invisible to one step of memory;
//! * *X-priority damping without counters*: freezes the bootstrap or
//!   (with collision scoping) livelocks behind pinned `a = 0` values;
//! * *saturating counter + bounded hold-streak escape* (finite state,
//!   so certifiable in principle): the adversary aligns the escape
//!   phases of a blocked pair and the simultaneous escapes resonate.
//!
//! The pattern — every finite-memory symmetry breaker loses to an
//! adaptive scheduler — suggests the paper's wait-freedom gap is
//! structural rather than a transcription slip: breaking the resonance
//! deterministically appears to need unbounded information (counters,
//! as here) or the full chain-potential argument the paper intended.

use crate::color::mex;
use ftcolor_model::{Algorithm, Neighborhood, PorCert, ProcessId, Step};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Register contents of the patched algorithm: Algorithm 2's triple plus
/// the update counter used for priority arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg2P {
    /// The (static) input identifier `X_p`.
    pub x: u64,
    /// First candidate color (avoids higher-identifier neighbors only).
    pub a: u64,
    /// Second candidate color (avoids all neighbor components).
    pub b: u64,
    /// Number of updates this process has applied.
    pub c: u64,
}

/// Private state: the published register plus the previous view (used
/// only for the frozen-view escape; never published). The state owns no
/// heap memory, so cloning, interning and parking it never allocate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State2P {
    /// The published part.
    pub reg: Reg2P,
    /// Neighbor registers read at the previous activation (`None` before
    /// the first activation; inner `None`s are `⊥` registers).
    pub last_view: Option<View2P>,
}

/// One activation's view, by view position, held inline: Algorithm 2′
/// runs on cycles and paths, so a process has at most two neighbors.
///
/// The view derefs to the slice of its entries, and equality, hashing
/// and `Debug` all go through that slice — so a [`State2P`] hashes to
/// the same bytes as it did when this field was a `Vec` (a length
/// prefix, then the entries), which keeps the checker's symmetry
/// election and every pinned configuration count unchanged.
#[derive(Clone, Copy)]
pub struct View2P {
    regs: [Option<Reg2P>; 2],
    len: u8,
}

impl FromIterator<Option<Reg2P>> for View2P {
    /// Collects a view of degree ≤ 2.
    ///
    /// # Panics
    ///
    /// Panics on a view of more than two entries: Algorithm 2′ stores
    /// views of cycles and paths only.
    fn from_iter<I: IntoIterator<Item = Option<Reg2P>>>(entries: I) -> Self {
        let mut view = View2P {
            regs: [None; 2],
            len: 0,
        };
        for (k, reg) in entries.into_iter().enumerate() {
            assert!(
                k < 2,
                "Algorithm 2' runs on cycles and paths: a view has at most 2 entries"
            );
            view.regs[k] = reg;
            view.len += 1;
        }
        view
    }
}

impl Deref for View2P {
    type Target = [Option<Reg2P>];

    fn deref(&self) -> &[Option<Reg2P>] {
        &self.regs[..usize::from(self.len)]
    }
}

impl DerefMut for View2P {
    fn deref_mut(&mut self) -> &mut [Option<Reg2P>] {
        &mut self.regs[..usize::from(self.len)]
    }
}

impl PartialEq for View2P {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for View2P {}

impl Hash for View2P {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for View2P {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Algorithm 2 with counter-priority arbitration. Identical safety and
/// palette; provably free of configuration cycles (the unpatched
/// algorithm's failure mode). See the [module docs](self) for exactly
/// what is and is not established.
///
/// ```
/// use ftcolor_core::alg2_patched::FiveColoringPatched;
/// use ftcolor_model::prelude::*;
///
/// # fn main() -> Result<(), ftcolor_model::ModelError> {
/// let topo = Topology::cycle(6)?;
/// let mut exec = Execution::new(&FiveColoringPatched, &topo, vec![3, 14, 15, 92, 65, 35]);
/// let report = exec.run(RandomSubset::new(1, 0.5), 100_000)?;
/// assert!(report.all_returned());
/// let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
/// assert!(topo.is_proper_coloring(&colors));
/// assert!(colors.iter().all(|&c| c <= 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FiveColoringPatched;

impl FiveColoringPatched {
    /// Creates the algorithm object (stateless; all state is per-process).
    pub fn new() -> Self {
        FiveColoringPatched
    }
}

impl Algorithm for FiveColoringPatched {
    type Input = u64;
    type State = State2P;
    type Reg = Reg2P;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: u64) -> State2P {
        State2P {
            reg: Reg2P {
                x: input,
                a: 0,
                b: 0,
                c: 0,
            },
            last_view: None,
        }
    }

    fn publish(&self, state: &State2P) -> Reg2P {
        state.reg
    }

    fn step(&self, state: &mut State2P, view: &Neighborhood<'_, Reg2P>) -> Step<u64> {
        // Paper lines 9–10: the return checks, verbatim.
        let in_c = |v: u64| view.awake().any(|r| r.a == v || r.b == v);
        if !in_c(state.reg.a) {
            return Step::Return(state.reg.a);
        }
        if !in_c(state.reg.b) {
            return Step::Return(state.reg.b);
        }

        // Paper lines 12–13: the recomputations, verbatim…
        let me = state.reg;
        let new_a = mex(view.awake().filter(|r| r.x > me.x).flat_map(|r| [r.a, r.b]));
        let new_b = mex(view.awake().flat_map(|r| [r.a, r.b]));

        // …gated by counter-priority arbitration with the frozen-view
        // escape (see module docs).
        let escape = state
            .last_view
            .as_ref()
            .is_some_and(|last| last.iter().map(Option::as_ref).eq(view.iter()));
        let have_priority = |val: u64| {
            view.awake()
                .filter(|r| r.a == val || r.b == val)
                .all(|r| (me.c, me.x) < (r.c, r.x))
        };
        let mut changed = false;
        if new_a != me.a && (escape || have_priority(me.a)) {
            state.reg.a = new_a;
            changed = true;
        }
        if new_b != me.b && (escape || have_priority(me.b)) {
            state.reg.b = new_b;
            changed = true;
        }
        if changed {
            state.reg.c += 1;
        }
        state.last_view = Some(view.iter().map(Option::<&Reg2P>::copied).collect());
        Step::Continue
    }

    // `step` folds the live view as a multiset, but `last_view` is
    // stored *by view position* (the frozen-view escape compares it
    // entry-wise against the next read), so it must be reindexed when a
    // relabeling changes the neighbor order this process sees.
    fn relabel_view(&self, state: &mut State2P, perm: &[usize]) -> bool {
        if let Some(v) = &mut state.last_view {
            debug_assert_eq!(v.len(), perm.len());
            let old = *v;
            for (k, &src) in perm.iter().enumerate() {
                v[k] = old[src];
            }
        }
        true
    }

    // A pure rule (no interior mutability; `last_view` lives in the
    // per-process state, not the algorithm object) whose solo
    // termination from every reachable state is proven by the static
    // certifier (`FTC-TERM-007`), so both POR layers are sound.
    fn por_certificate(&self) -> PorCert {
        PorCert::CommutingTerminating
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_model::inputs;
    use ftcolor_model::prelude::*;

    fn assert_valid(topo: &Topology, outputs: &[Option<u64>]) {
        assert!(
            topo.is_proper_partial_coloring(outputs),
            "improper: {outputs:?}"
        );
        for c in outputs.iter().flatten() {
            assert!(*c <= 4, "palette violation: {c}");
        }
    }

    fn reg(x: u64) -> Reg2P {
        Reg2P {
            x,
            a: x % 5,
            b: (x + 1) % 5,
            c: x / 2,
        }
    }

    /// Records every byte a `Hash` impl writes.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn hash_bytes(value: &impl Hash) -> Vec<u8> {
        let mut h = Recorder::default();
        value.hash(&mut h);
        h.0
    }

    #[test]
    fn inline_view_hashes_like_the_vec_it_replaced() {
        // The `State2P` layout before the view moved inline.
        #[derive(Hash)]
        struct VecState {
            reg: Reg2P,
            last_view: Option<Vec<Option<Reg2P>>>,
        }
        let views: [Option<Vec<Option<Reg2P>>>; 6] = [
            None,
            Some(vec![None]),
            Some(vec![Some(reg(6))]),
            Some(vec![None, None]),
            Some(vec![Some(reg(4)), None]),
            Some(vec![Some(reg(1)), Some(reg(2))]),
        ];
        for last_view in views {
            let inline = State2P {
                reg: reg(11),
                last_view: last_view.as_ref().map(|v| v.iter().copied().collect()),
            };
            assert_eq!(inline.last_view.as_deref(), last_view.as_deref());
            assert_eq!(format!("{:?}", inline.last_view), format!("{last_view:?}"));
            let old = VecState {
                reg: reg(11),
                last_view,
            };
            assert_eq!(hash_bytes(&inline), hash_bytes(&old), "{:?}", old.last_view);
        }
    }

    #[test]
    fn views_compare_by_their_entries_only() {
        let mut degree_one: View2P = [Some(reg(3))].into_iter().collect();
        let degree_two: View2P = [Some(reg(3)), None].into_iter().collect();
        assert_ne!(degree_one, degree_two, "a longer view differs");
        degree_one[0] = None;
        assert_eq!(
            degree_one,
            [None].into_iter().collect(),
            "spare entry ignored"
        );
    }

    #[test]
    #[should_panic(expected = "a view has at most 2 entries")]
    fn views_of_degree_three_are_refused() {
        let _: View2P = [None, None, None].into_iter().collect();
    }

    #[test]
    fn escapes_the_c3_livelock() {
        // The exact adversary that starves unpatched Algorithm 2
        // (alg2::tests::finding_crash_free_livelock_on_c3): p0 solo, then
        // {p1, p2} in lockstep forever.
        let topo = Topology::cycle(3).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, vec![0, 1, 2]);
        exec.step_with(&ActivationSet::solo(ProcessId(0)));
        assert_eq!(exec.outputs()[0], Some(0));
        let pair = ActivationSet::of([ProcessId(1), ProcessId(2)]);
        for _ in 0..50 {
            if exec.all_returned() {
                break;
            }
            exec.step_with(&pair);
        }
        assert!(exec.all_returned(), "patched algorithm must escape");
        assert_valid(&topo, exec.outputs());
    }

    #[test]
    fn escapes_the_c6_crash_livelock() {
        let ids = vec![100, 10, 50, 5, 40, 8];
        let topo = Topology::cycle(6).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, ids);
        let crashes = [(ProcessId(0), 2), (ProcessId(1), 2), (ProcessId(5), 2)];
        let sched = CrashPlan::new(Synchronous::new(), crashes);
        let report = exec.run(sched, 10_000).unwrap();
        assert_eq!(report.returned_count(), 3, "all three survivors return");
        assert_valid(&topo, &report.outputs);
    }

    #[test]
    fn survives_frozen_neighbors_on_both_sides() {
        // Both neighbors crash-frozen: the frozen-view escape lets the
        // middle process exit via b = mex(constant C).
        let topo = Topology::cycle(3).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, vec![5, 1, 9]);
        exec.step_with(&ActivationSet::of([ProcessId(0), ProcessId(2)]));
        for _ in 0..20 {
            if exec.outputs()[1].is_some() {
                break;
            }
            exec.step_with(&ActivationSet::solo(ProcessId(1)));
        }
        assert!(exec.outputs()[1].is_some(), "middle process must return");
        assert_valid(&topo, exec.outputs());
    }

    #[test]
    fn terminates_within_relaxed_linear_bounds() {
        // Arbitration serializes conflicting updates, so rounds may grow
        // by a constant factor over the unpatched 3n+8.
        for n in [3usize, 7, 20, 64] {
            for seed in 0..4u64 {
                let ids = inputs::random_unique(n, (n as u64).pow(3), seed);
                let topo = Topology::cycle(n).unwrap();

                let mut patched = Execution::new(&FiveColoringPatched, &topo, ids.clone());
                let rp = patched
                    .run(RandomSubset::new(seed, 0.5), 1_000_000)
                    .unwrap();
                assert!(rp.all_returned(), "n={n} seed={seed}");
                assert_valid(&topo, &rp.outputs);
                assert!(
                    rp.max_activations() <= 9 * n as u64 + 24,
                    "n={n} seed={seed}: {}",
                    rp.max_activations()
                );

                let mut sync = Execution::new(&FiveColoringPatched, &topo, ids);
                let rs = sync.run(Synchronous::new(), 1_000_000).unwrap();
                assert!(rs.all_returned());
                assert_valid(&topo, &rs.outputs);
                assert!(rs.max_activations() <= 9 * n as u64 + 24);
            }
        }
    }

    #[test]
    fn staircase_stays_linear_not_worse() {
        let n = 200;
        let ids = inputs::staircase(n);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, ids);
        let report = exec.run(Synchronous::new(), 100_000).unwrap();
        assert!(report.all_returned());
        assert!(report.max_activations() <= 9 * n as u64 + 24);
    }

    #[test]
    fn crash_sweeps_all_survivors_return() {
        // The cells where unpatched Algorithm 2 can starve: here every
        // survivor must terminate.
        let n = 40;
        let topo = Topology::cycle(n).unwrap();
        for seed in 0..8u64 {
            let ids = inputs::random_unique(n, 1 << 30, seed);
            let crash_ids: std::collections::HashSet<usize> =
                (0..n).filter(|&i| i as u64 % 4 == seed % 4).collect();
            let crashes = crash_ids.iter().map(|&i| (ProcessId(i), seed % 6 + 1));
            let sched = CrashPlan::new(Synchronous::new(), crashes);
            let mut exec = Execution::new(&FiveColoringPatched, &topo, ids);
            let report = exec.run(sched, 100_000).unwrap();
            assert_valid(&topo, &report.outputs);
            for i in 0..n {
                if !crash_ids.contains(&i) {
                    assert!(
                        report.outputs[i].is_some(),
                        "seed {seed}: survivor p{i} starved"
                    );
                }
            }
        }
    }

    #[test]
    fn laggards_and_waves_terminate() {
        for n in [9usize, 24] {
            let ids = inputs::staircase_poly(n);
            let topo = Topology::cycle(n).unwrap();
            for slow in [0usize, n / 2] {
                let mut exec = Execution::new(&FiveColoringPatched, &topo, ids.clone());
                let report = exec
                    .run(Laggard::new(ProcessId(slow), 37), 1_000_000)
                    .unwrap();
                assert!(report.all_returned(), "laggard {slow}");
                assert_valid(&topo, &report.outputs);
            }
            let mut exec = Execution::new(&FiveColoringPatched, &topo, ids.clone());
            let report = exec.run(Wave::new(n, 2, 1), 1_000_000).unwrap();
            assert!(report.all_returned());
            assert_valid(&topo, &report.outputs);
        }
    }

    #[test]
    fn counters_do_grow_but_stay_small_in_practice() {
        let n = 30;
        let ids = inputs::random_unique(n, 1 << 20, 7);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, ids);
        exec.run(RandomSubset::new(9, 0.5), 1_000_000).unwrap();
        for p in topo.nodes() {
            assert!(
                exec.state(p).reg.c <= 20,
                "{p}: c = {}",
                exec.state(p).reg.c
            );
        }
    }
}
