//! Algorithm 3 — wait-free 5-coloring in **O(log\* n)** rounds (§4).
//!
//! Algorithm 3 runs [Algorithm 2](crate::alg2) unchanged as its *coloring
//! component*, and in parallel evolves the identifier `X_p` à la
//! Cole–Vishkin so that monotone identifier chains — the quantity that
//! makes Algorithm 2 linear-time — collapse to constant length within
//! `O(log* n)` rounds (Theorem 4.4).
//!
//! Because the coloring component's correctness needs the evolving
//! identifiers to stay a *proper coloring* of the cycle at all times
//! (Lemma 4.5), identifier updates are gated by a **green-light**
//! counter `r_p`: a process may only move to its `(k+1)`-th identifier
//! once both neighbors have published counter `≥ k` — i.e.
//! `r_p ≤ min{r̂_q, r̂_q'}`. A process whose identifier becomes a local
//! extremum retires from the reduction by setting `r_p = ∞`
//! ([`Rank::Omega`]); a local minimum additionally jumps to a small
//! identifier avoiding its neighbors' future reductions (line 19).
//!
//! The green-light discipline alone is only starvation-free (a crashed
//! neighbor withholds the light forever), but the coloring component
//! never waits — the paper's core insight is that the *combination*
//! remains wait-free with `O(log* n)` round complexity.
//!
//! ## Reproduction finding
//!
//! Because Algorithm 3 embeds Algorithm 2 verbatim as its coloring
//! component, it inherits [the livelock documented there](crate::alg2#reproduction-finding-the-combination-is-not-wait-free-as-written):
//! exhaustive model checking (E6) finds non-terminating fair executions
//! on `C3` for this algorithm too. All *safety* claims (proper coloring,
//! palette `{0..4}`, the Lemma 4.5 identifier invariant) verify cleanly,
//! and the `O(log* n)` bound holds across the whole schedule zoo
//! (synchronous, round-robin, random subsets, waves, solo runners,
//! laggards) — the livelock needs the adversary to first let a process
//! return and then keep its two neighbors in perfect lockstep.
//!
//! ## Resolved ambiguity: asleep neighbors
//!
//! The paper leaves implicit what `min{r̂_q, r̂_q'}` means while a
//! neighbor's register is still `⊥`. We treat `⊥` as *withholding the
//! green light*: reducing `X_p` without knowing a sleeping neighbor's
//! identifier could collide with it upon wake-up, violating Lemma 4.5.
//! (Before its first activation a process is itself unblocked, as the
//! paper notes: `r_p(0) = 0 ≠ r̂_p(0) = ⊥`.) Wait-freedom is unaffected —
//! termination always comes from the coloring component.

use crate::alg2::color_step;
use crate::cole_vishkin::reduce;
use crate::color::mex;
use ftcolor_model::{Algorithm, Neighborhood, PorCert, ProcessId, Step};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// The green-light counter `r_p ∈ N ∪ {∞}`.
///
/// Ordered with `Finite(a) < Finite(b)` iff `a < b`, and
/// `Finite(_) < Omega`.
///
/// ```
/// use ftcolor_core::alg3::Rank;
/// assert!(Rank::Finite(3) < Rank::Finite(4));
/// assert!(Rank::Finite(u32::MAX) < Rank::Omega);
/// ```
///
/// `k` is a `u32`, which keeps `Rank` at 8 bytes (and the registers
/// that carry it 8 bytes smaller): `r` counts identifier-change
/// attempts, which stay within the `O(log* n)` round bound. Decoding a
/// register whose `r` does not fit fails with a typed error instead of
/// truncating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Rank {
    /// `r_p = k`: the process has performed `k` identifier-change
    /// attempts and still participates in the reduction.
    Finite(u32),
    /// `r_p = ∞`: the identifier is frozen (the process became a local
    /// extremum of the evolving identifiers).
    Omega,
}

impl Rank {
    /// `r + 1`, saturating at `Omega` conceptually (`Finite` arithmetic
    /// never overflows in practice: `r` is bounded by the round count).
    pub fn incr(self) -> Self {
        match self {
            Rank::Finite(k) => Rank::Finite(k + 1),
            Rank::Omega => Rank::Omega,
        }
    }

    /// `true` for [`Rank::Finite`].
    pub fn is_finite(&self) -> bool {
        matches!(self, Rank::Finite(_))
    }
}

/// Writes the bytes the derived `Hash` of the former `Finite(u64)`
/// layout wrote — the discriminant as an `isize`, then `k` as a `u64` —
/// so hashed configurations (the checker's symmetry election among
/// them) are unchanged by the narrower field.
impl Hash for Rank {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Rank::Finite(k) => {
                state.write_isize(0);
                state.write_u64(u64::from(k));
            }
            Rank::Omega => state.write_isize(1),
        }
    }
}

impl Default for Rank {
    fn default() -> Self {
        Rank::Finite(0)
    }
}

/// Register contents of Algorithm 3: evolving identifier, green-light
/// counter, and both color candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg3 {
    /// The evolving identifier `X_p` (initially the input).
    pub x: u64,
    /// The green-light counter `r_p`.
    pub r: Rank,
    /// First color candidate (avoids higher-identifier neighbors only).
    pub a: u64,
    /// Second color candidate (avoids all neighbor components).
    pub b: u64,
}

/// Private state (Algorithm 3 publishes everything it knows).
pub type State3 = Reg3;

/// Algorithm 3 of the paper: Algorithm 2 plus green-light–synchronized
/// Cole–Vishkin identifier reduction. See the [module docs](self).
///
/// Only defined on cycles (each process must have exactly two neighbors).
///
/// ```
/// use ftcolor_core::FastFiveColoring;
/// use ftcolor_model::prelude::*;
/// use ftcolor_model::inputs;
///
/// # fn main() -> Result<(), ftcolor_model::ModelError> {
/// let n = 1000;
/// let topo = Topology::cycle(n)?;
/// // Staircase identifiers: the worst case that makes Algorithm 2 take
/// // Θ(n) rounds is handled in O(log* n) rounds here.
/// let mut exec = Execution::new(&FastFiveColoring, &topo, inputs::staircase_poly(n));
/// let report = exec.run(Synchronous::new(), 100_000)?;
/// assert!(report.all_returned());
/// assert!(report.max_activations() < 60, "near-constant rounds");
/// let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
/// assert!(topo.is_proper_coloring(&colors));
/// assert!(colors.iter().all(|&c| c <= 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastFiveColoring;

impl FastFiveColoring {
    /// Creates the algorithm object (stateless; all state is per-process).
    pub fn new() -> Self {
        FastFiveColoring
    }
}

impl Algorithm for FastFiveColoring {
    type Input = u64;
    type State = State3;
    type Reg = Reg3;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: u64) -> State3 {
        Reg3 {
            x: input,
            r: Rank::Finite(0),
            a: 0,
            b: 0,
        }
    }

    fn publish(&self, state: &State3) -> Reg3 {
        *state
    }

    /// One round of Algorithm 3 (paper lines 5–19).
    ///
    /// # Panics
    ///
    /// Panics if the process does not have exactly two neighbors — the
    /// algorithm is specified on cycles.
    fn step(&self, state: &mut State3, view: &Neighborhood<'_, Reg3>) -> Step<u64> {
        assert_eq!(view.len(), 2, "Algorithm 3 runs on cycles (degree 2)");

        // Lines 6–10: the coloring component — Algorithm 2 verbatim, on
        // the evolving identifiers.
        let awake: Vec<(u64, u64, u64)> = view.awake().map(|r| (r.x, r.a, r.b)).collect();
        if let Some(c) = color_step(state.x, &mut state.a, &mut state.b, &awake) {
            return Step::Return(c);
        }

        // Lines 11–19: the identifier-reduction component. A ⊥ neighbor
        // withholds the green light (see module docs).
        if state.r.is_finite() {
            let q = view.reg(0);
            let q2 = view.reg(1);
            if let (Some(q), Some(q2)) = (q, q2) {
                if state.r <= q.r.min(q2.r) {
                    let (xmin, xmax) = (q.x.min(q2.x), q.x.max(q2.x));
                    if xmin < state.x && state.x < xmax {
                        // Line 12–15: strictly between its neighbors —
                        // attempt a Cole–Vishkin reduction toward the
                        // smaller one.
                        state.r = state.r.incr();
                        let y = reduce(state.x, xmin);
                        if y < xmin {
                            state.x = y;
                        }
                    } else {
                        // Lines 16–19: local extremum of the evolving
                        // identifiers — retire from the reduction.
                        state.r = Rank::Omega;
                        if state.x < xmin {
                            let candidate = mex([reduce(q.x, state.x), reduce(q2.x, state.x)]);
                            state.x = state.x.min(candidate);
                        }
                    }
                }
            }
        }
        Step::Continue
    }

    // Every view read is symmetric in the two neighbors: the coloring
    // component folds over `view.awake()` as a multiset, and the
    // identifier component only uses `min`/`max` of the neighbor ranks
    // and identifiers plus a `mex` over both reductions. The state holds
    // no view-position-indexed data, so relabeling is a no-op.
    fn relabel_view(&self, _state: &mut State3, _perm: &[usize]) -> bool {
        true
    }

    // A pure rule (no interior mutability) whose solo termination from
    // every reachable state is proven by the static certifier
    // (`FTC-TERM-007`), so both POR layers are sound.
    fn por_certificate(&self) -> PorCert {
        PorCert::CommutingTerminating
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_model::inputs;
    use ftcolor_model::logstar::log_star_u64;
    use ftcolor_model::prelude::*;

    fn run_on_cycle(
        ids: Vec<u64>,
        schedule: impl Schedule,
        fuel: u64,
    ) -> (Topology, ExecutionReport<u64>) {
        let topo = Topology::cycle(ids.len()).unwrap();
        let mut exec = Execution::new(&FastFiveColoring, &topo, ids);
        let report = exec.run(schedule, fuel).unwrap();
        (topo, report)
    }

    fn assert_valid(topo: &Topology, report: &ExecutionReport<u64>) {
        assert!(
            topo.is_proper_partial_coloring(&report.outputs),
            "improper: {:?}",
            report.outputs
        );
        for c in report.outputs.iter().flatten() {
            assert!(*c <= 4, "palette violation: {c}");
        }
    }

    /// Generous-but-falsifiable regression bound for the O(log* n)
    /// theorem: measured maxima in EXPERIMENTS.md sit well below this.
    fn logstar_bound(n: usize) -> u64 {
        30 + 15 * u64::from(log_star_u64(n as u64))
    }

    #[test]
    fn rank_ordering() {
        assert!(Rank::Finite(0) < Rank::Finite(1));
        assert!(Rank::Finite(1_000_000) < Rank::Omega);
        assert_eq!(Rank::Omega.incr(), Rank::Omega);
        assert_eq!(Rank::Finite(3).incr(), Rank::Finite(4));
        assert_eq!(Rank::default(), Rank::Finite(0));
        assert!(Rank::default().is_finite());
        assert!(!Rank::Omega.is_finite());
    }

    #[test]
    fn identifiers_stay_proper_throughout_lemma_4_5() {
        // Check X̂-properness (adjacent published identifiers differ) and
        // X-vs-X̂ properness after *every* step of adversarial executions.
        for seed in 0..12u64 {
            let n = 9;
            let ids = inputs::random_unique(n, 10_000, seed);
            let topo = Topology::cycle(n).unwrap();
            let mut exec = Execution::new(&FastFiveColoring, &topo, ids);
            let mut sched = RandomSubset::new(seed * 13 + 1, 0.45);
            for t in 0..3000u64 {
                if exec.all_returned() {
                    break;
                }
                let Some(set) = sched.next(t + 1, exec.working()) else {
                    break;
                };
                exec.step_with(&set);
                for (p, q) in topo.edges() {
                    if let (Some(rp), Some(rq)) = (exec.register(p), exec.register(q)) {
                        assert_ne!(rp.x, rq.x, "published X collision on edge {p}-{q}");
                    }
                    // The stronger invariant from the Lemma 4.5 proof:
                    // X_p ∉ {X̂_q, X_q}.
                    if let Some(rq) = exec.register(q) {
                        assert_ne!(exec.state(p).x, rq.x, "X_p = X̂_q on {p}-{q}");
                    }
                    if let Some(rp) = exec.register(p) {
                        assert_ne!(exec.state(q).x, rp.x, "X_q = X̂_p on {p}-{q}");
                    }
                    assert_ne!(exec.state(p).x, exec.state(q).x, "private X collision");
                }
            }
        }
    }

    #[test]
    fn staircase_terminates_in_logstar_rounds() {
        for n in [3usize, 10, 100, 1_000, 10_000] {
            let (topo, report) =
                run_on_cycle(inputs::staircase_poly(n), Synchronous::new(), 100_000);
            assert!(report.all_returned(), "n={n}");
            assert_valid(&topo, &report);
            assert!(
                report.max_activations() <= logstar_bound(n),
                "n={n}: {} > {}",
                report.max_activations(),
                logstar_bound(n)
            );
        }
    }

    #[test]
    fn contrast_with_algorithm_2_on_staircase() {
        // The headline shape: on the adversarial staircase, Algorithm 2
        // needs Ω(n) activations while Algorithm 3 stays near-constant.
        let n = 400;
        let ids = inputs::staircase_poly(n);
        let topo = Topology::cycle(n).unwrap();

        let mut slow = Execution::new(&crate::FiveColoring, &topo, ids.clone());
        let slow_report = slow.run(Synchronous::new(), 100_000).unwrap();

        let mut fast = Execution::new(&FastFiveColoring, &topo, ids);
        let fast_report = fast.run(Synchronous::new(), 100_000).unwrap();

        assert!(
            slow_report.max_activations() >= (n as u64) / 2,
            "Algorithm 2 should be linear on the staircase, got {}",
            slow_report.max_activations()
        );
        assert!(
            fast_report.max_activations() <= logstar_bound(n),
            "Algorithm 3 should be near-constant, got {}",
            fast_report.max_activations()
        );
    }

    #[test]
    fn random_schedules_remain_correct_and_fast() {
        for seed in 0..8u64 {
            let n = 64;
            let ids = inputs::random_unique(n, 1 << 40, seed);
            let (topo, report) = run_on_cycle(ids, RandomSubset::new(seed * 3 + 2, 0.5), 1_000_000);
            assert!(report.all_returned());
            assert_valid(&topo, &report);
        }
    }

    #[test]
    fn round_robin_and_solo_schedules() {
        let n = 12;
        let ids = inputs::random_unique(n, 1 << 30, 5);
        let (topo, report) = run_on_cycle(ids.clone(), RoundRobin::new(), 100_000);
        assert!(report.all_returned());
        assert_valid(&topo, &report);

        let (topo, report) = run_on_cycle(ids, SoloRunner::ascending(n), 100_000);
        assert!(report.all_returned());
        assert_valid(&topo, &report);
    }

    #[test]
    fn laggard_neighbor_cannot_stall_termination() {
        // One process 50× slower than everyone: the green-light gate must
        // not leak into the coloring component's wait-freedom.
        for slow in 0..6usize {
            let n = 24;
            let ids = inputs::staircase_poly(n);
            let (topo, report) = run_on_cycle(ids, Laggard::new(ProcessId(slow), 50), 1_000_000);
            assert!(report.all_returned(), "slow={slow}");
            assert_valid(&topo, &report);
        }
    }

    #[test]
    fn crashes_never_break_safety() {
        // Safety (properness + palette) holds under every crash pattern.
        // Termination of survivors can fail for the same reason as in
        // Algorithm 2 (see alg2::tests::finding_crash_livelock_counterexample):
        // the coloring component inherits the paper's Lemma 3.13 gap, so
        // here we drive bounded executions and assert safety plus the
        // activation bound of whoever did return.
        let n = 40;
        let topo = Topology::cycle(n).unwrap();
        for seed in 0..8u64 {
            let ids = inputs::random_unique(n, 1 << 30, seed);
            let crashes = (0..n)
                .filter(|&i| i as u64 % 4 == seed % 4)
                .map(|i| (ProcessId(i), seed % 6 + 1));
            let mut sched = CrashPlan::new(Synchronous::new(), crashes);
            let mut exec = Execution::new(&FastFiveColoring, &topo, ids);
            for t in 0..5_000u64 {
                if exec.all_returned() {
                    break;
                }
                let Some(set) = sched.next(t + 1, exec.working()) else {
                    break;
                };
                exec.step_with(&set);
            }
            assert!(
                topo.is_proper_partial_coloring(exec.outputs()),
                "seed {seed}"
            );
            for c in exec.outputs().iter().flatten() {
                assert!(*c <= 4);
            }
            // Plenty of processes return despite the crashes, and every
            // returner respected the O(log* n) activation budget.
            let returned = exec.outputs().iter().flatten().count();
            assert!(returned >= n / 4, "seed {seed}: only {returned} returned");
            for p in topo.nodes() {
                if exec.outputs()[p.index()].is_some() {
                    let acts = exec.activation_count(p);
                    assert!(acts <= logstar_bound(n), "survivor {p} took {acts}");
                }
            }
        }
    }

    #[test]
    fn crash_free_executions_always_terminate() {
        // Complement to `crashes_never_break_safety`: without crashes the
        // wait-freedom claim holds across schedule families.
        for seed in 0..4u64 {
            let n = 32;
            let ids = inputs::random_unique(n, 1 << 35, seed);
            for mode in 0..3 {
                let topo = Topology::cycle(n).unwrap();
                let mut exec = Execution::new(&FastFiveColoring, &topo, ids.clone());
                let report = match mode {
                    0 => exec.run(Synchronous::new(), 1_000_000),
                    1 => exec.run(RoundRobin::new(), 1_000_000),
                    _ => exec.run(Wave::new(n, 5, 3), 1_000_000),
                }
                .unwrap();
                assert!(report.all_returned(), "seed {seed} mode {mode}");
            }
        }
    }

    #[test]
    fn never_awake_neighbors_block_reduction_but_not_termination() {
        // Process 1 runs alone forever between two sleeping neighbors: it
        // returns on its first activation (empty conflict set) without
        // ever reducing its identifier.
        let topo = Topology::cycle(5).unwrap();
        let ids = vec![100, 200, 300, 400, 500];
        let mut exec = Execution::new(&FastFiveColoring, &topo, ids);
        exec.step_with(&ActivationSet::solo(ProcessId(1)));
        assert_eq!(exec.outputs()[1], Some(0));
        assert_eq!(exec.state(ProcessId(1)).x, 200, "no reduction happened");
        assert_eq!(exec.state(ProcessId(1)).r, Rank::Finite(0));
    }

    #[test]
    fn blocked_process_keeps_rank_until_green_light() {
        // C3, ids 10 < 20 < 30. Wake p0 and p2 (extremes); p1 sleeps.
        // p0 is a local min among awake ids, p2 a local max, but each has
        // a ⊥ neighbor so neither may touch X.
        let topo = Topology::cycle(3).unwrap();
        let mut exec = Execution::new(&FastFiveColoring, &topo, vec![10, 20, 30]);
        exec.step_with(&ActivationSet::of([ProcessId(0), ProcessId(2)]));
        assert_eq!(exec.state(ProcessId(0)).x, 10);
        assert_eq!(exec.state(ProcessId(2)).x, 30);
        assert_eq!(exec.state(ProcessId(0)).r, Rank::Finite(0));
        assert_eq!(exec.state(ProcessId(2)).r, Rank::Finite(0));
        // Now everyone runs: p1 (strictly between) may reduce; extremes
        // set r = Ω.
        exec.step_with(&ActivationSet::All);
        if exec.outputs()[0].is_none() {
            assert_eq!(exec.state(ProcessId(0)).r, Rank::Omega);
        }
        if exec.outputs()[2].is_none() {
            assert_eq!(exec.state(ProcessId(2)).r, Rank::Omega);
        }
    }

    #[test]
    fn local_min_jump_avoids_future_reductions() {
        // Line 19: a local minimum p with X_p < min neighbors picks
        // min{X_p, mex{f(X_q, X_p), f(X_q', X_p)}}. With X_p large the
        // mex lands below 3 and must not equal either neighbor's future
        // reduction.
        let topo = Topology::cycle(3).unwrap();
        // ids: p0 = 64 (min), p1 = 200, p2 = 300.
        let mut exec = Execution::new(&FastFiveColoring, &topo, vec![64, 200, 300]);
        exec.step_with(&ActivationSet::All); // everyone sees everyone
        let x0 = exec.state(ProcessId(0)).x;
        assert!(x0 <= 2, "local min jumped to a tiny identifier, got {x0}");
        assert_eq!(exec.state(ProcessId(0)).r, Rank::Omega);
    }

    #[test]
    fn proper_coloring_inputs_remark_3_10() {
        let ids = inputs::proper_k_coloring(30, 5);
        let (topo, report) = run_on_cycle(ids, Synchronous::new(), 100_000);
        assert!(report.all_returned());
        assert_valid(&topo, &report);
    }

    #[test]
    #[should_panic(expected = "degree 2")]
    fn rejects_non_cycle_topologies() {
        let topo = Topology::clique(4).unwrap();
        let mut exec = Execution::new(&FastFiveColoring, &topo, vec![1, 2, 3, 4]);
        exec.step_with(&ActivationSet::All);
    }
}
