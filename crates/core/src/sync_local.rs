//! The classic **synchronous** baseline: Cole–Vishkin 3-coloring of the
//! oriented cycle in `½ log* n + O(1)` rounds.
//!
//! This is the algorithm the paper positions itself against (§1.1): in the
//! failure-free lock-step LOCAL model, 3-coloring the cycle takes
//! `Θ(log* n)` rounds — optimal by Linial's lower bound — but tolerates
//! neither asynchrony nor crashes. Experiment E9 compares its round count
//! with Algorithm 3's under the synchronous schedule.
//!
//! ## Implementation notes
//!
//! * The LOCAL model gives nodes an **orientation** (each node knows its
//!   successor) and knowledge of the identifier range. Here the input
//!   carries the node's position and the ring size; the algorithm object
//!   carries a width schedule derived from the maximum identifier.
//! * The classic reduction iterates `x ← 2i + x_i` where `i` is the first
//!   bit (within an agreed fixed width) at which `x` differs from the
//!   successor's value; fixed widths (rather than Eq. (6)'s `min |·|`
//!   cap) are what make the collision-freedom proof work for arbitrary,
//!   non-monotone neighbors.
//! * After the width schedule bottoms out at 3 bits, values lie in
//!   `{0..5}`; three *shift-down* sub-rounds recolor 5, 4, 3 away using
//!   `min N ∖ {neighbor colors}`, landing in `{0, 1, 2}`.
//! * The implementation is wrapped in an α-synchronizer (each node waits
//!   until both neighbors have published its current round), so it also
//!   runs — lock-step — under *any fair* schedule of the asynchronous
//!   model; under crashes it simply stalls, which is exactly the
//!   deficiency the paper's algorithms remove.

use crate::color::mex;
use ftcolor_model::logstar::bit_length;
use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use serde::{Deserialize, Serialize};

/// One fixed-width Cole–Vishkin step: `2i + x_i` with `i` the least bit
/// where `x` and `y` differ (both interpreted as `width`-bit strings).
///
/// # Panics
///
/// Panics if `x == y` (the input must properly color the oriented cycle).
pub fn cv_step_fixed(x: u64, y: u64, width: u32) -> u64 {
    assert_ne!(x, y, "Cole–Vishkin requires distinct adjacent values");
    debug_assert!(bit_length(x) <= width && bit_length(y) <= width);
    let i = u64::from((x ^ y).trailing_zeros());
    2 * i + ((x >> i) & 1)
}

/// The agreed sequence of widths: starting from `width(max_id)`, each
/// round's values are `< 2·width`, so the next width is
/// `bit_length(2·width − 1)`; the schedule ends once the width reaches 3
/// (values in `{0..5}`). Its length is the paper's `O(log* n)` phase-1
/// round count.
pub fn width_schedule(max_id: u64) -> Vec<u32> {
    let mut w = bit_length(max_id).max(3);
    let mut out = vec![w];
    while w > 3 {
        w = bit_length(u64::from(2 * w - 1)).max(3);
        out.push(w);
    }
    out
}

/// Input to the baseline: the identifier plus the LOCAL-model extras
/// (position on the ring and ring size, which define the orientation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CvInput {
    /// The unique identifier.
    pub x: u64,
    /// The node's position on the ring (`0..n`).
    pub pos: usize,
    /// The ring size `n`.
    pub n: usize,
}

/// Register contents: position (to let neighbors identify their
/// successor), the synchronizer round, and the current and previous
/// values (a neighbor one round ahead exposes `prev`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CvReg {
    /// Publisher's ring position.
    pub pos: usize,
    /// Publisher's completed-round count.
    pub round: u32,
    /// Value at the publisher's current round.
    pub cur: u64,
    /// Value at the publisher's previous round.
    pub prev: u64,
}

/// Per-process state of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CvState {
    pos: usize,
    succ_pos: usize,
    round: u32,
    cur: u64,
    prev: u64,
}

/// Synchronous Cole–Vishkin 3-coloring of the oriented ring.
///
/// Construct with [`ColeVishkinThree::for_max_id`]; all nodes must use
/// the same instance (the width schedule is global knowledge, as the
/// LOCAL model permits).
///
/// ```
/// use ftcolor_core::sync_local::{ColeVishkinThree, CvInput};
/// use ftcolor_model::prelude::*;
///
/// # fn main() -> Result<(), ftcolor_model::ModelError> {
/// let n = 50;
/// let ids: Vec<u64> = (0..n as u64).map(|i| i * 997 + 13).collect();
/// let alg = ColeVishkinThree::for_max_id(*ids.iter().max().unwrap());
/// let topo = Topology::cycle(n)?;
/// let inputs: Vec<CvInput> = ids.iter().enumerate()
///     .map(|(pos, &x)| CvInput { x, pos, n })
///     .collect();
/// let mut exec = Execution::new(&alg, &topo, inputs);
/// let report = exec.run(Synchronous::new(), 10_000)?;
/// assert!(report.all_returned());
/// let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
/// assert!(topo.is_proper_coloring(&colors));
/// assert!(colors.iter().all(|&c| c <= 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ColeVishkinThree {
    widths: Vec<u32>,
}

impl ColeVishkinThree {
    /// Builds the baseline for identifiers in `[0, max_id]`.
    pub fn for_max_id(max_id: u64) -> Self {
        ColeVishkinThree {
            widths: width_schedule(max_id),
        }
    }

    /// Number of Cole–Vishkin reduction rounds (phase 1).
    fn phase1_rounds(&self) -> u32 {
        self.widths.len() as u32
    }

    /// Total rounds until every node returns: phase 1 plus three
    /// shift-down sub-rounds plus the final returning round.
    pub fn total_rounds(&self) -> u32 {
        self.phase1_rounds() + 3 + 1
    }

    /// Helper: the value a neighbor register exposes for round `r`, if
    /// available (`None` = that neighbor hasn't reached round `r` yet).
    fn value_at(reg: &CvReg, r: u32) -> Option<u64> {
        if reg.round == r {
            Some(reg.cur)
        } else if reg.round == r + 1 {
            Some(reg.prev)
        } else if reg.round > r + 1 {
            // Cannot happen under the synchronizer gate (a neighbor can
            // be at most one round ahead), but be defensive.
            None
        } else {
            None
        }
    }
}

impl Algorithm for ColeVishkinThree {
    type Input = CvInput;
    type State = CvState;
    type Reg = CvReg;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: CvInput) -> CvState {
        CvState {
            pos: input.pos,
            succ_pos: (input.pos + 1) % input.n,
            round: 0,
            cur: input.x,
            prev: input.x,
        }
    }

    fn publish(&self, s: &CvState) -> CvReg {
        CvReg {
            pos: s.pos,
            round: s.round,
            cur: s.cur,
            prev: s.prev,
        }
    }

    fn step(&self, s: &mut CvState, view: &Neighborhood<'_, CvReg>) -> Step<u64> {
        let p1 = self.phase1_rounds();
        // Gather both neighbors' values at our round, if published.
        let vals: Vec<Option<(usize, u64)>> = view
            .iter()
            .map(|r| r.and_then(|r| Self::value_at(r, s.round).map(|v| (r.pos, v))))
            .collect();
        if vals.iter().any(Option::is_none) {
            return Step::Continue; // synchronizer: wait for stragglers
        }
        let vals: Vec<(usize, u64)> = vals.into_iter().flatten().collect();

        if s.round < p1 {
            // Phase 1: reduce against the successor.
            let width = self.widths[s.round as usize];
            let succ = vals
                .iter()
                .find(|(pos, _)| *pos == s.succ_pos)
                .expect("ring neighbor with successor position");
            s.prev = s.cur;
            s.cur = cv_step_fixed(s.cur, succ.1, width);
            s.round += 1;
            Step::Continue
        } else if s.round < p1 + 3 {
            // Phase 2: shift-down sub-rounds eliminating colors 5, 4, 3.
            let target = u64::from(5 - (s.round - p1));
            debug_assert!(s.cur <= 5, "phase 1 must land in 0..=5");
            s.prev = s.cur;
            if s.cur == target {
                s.cur = mex(vals.iter().map(|&(_, v)| v));
                debug_assert!(s.cur <= 2);
            }
            s.round += 1;
            Step::Continue
        } else {
            Step::Return(s.cur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_model::inputs;
    use ftcolor_model::prelude::*;

    fn run_ring(ids: Vec<u64>, schedule: impl Schedule) -> (Topology, ExecutionReport<u64>) {
        let n = ids.len();
        let alg = ColeVishkinThree::for_max_id(*ids.iter().max().unwrap());
        let topo = Topology::cycle(n).unwrap();
        let inputs: Vec<CvInput> = ids
            .iter()
            .enumerate()
            .map(|(pos, &x)| CvInput { x, pos, n })
            .collect();
        let mut exec = Execution::new(&alg, &topo, inputs);
        let report = exec.run(schedule, 1_000_000).unwrap();
        (topo, report)
    }

    #[test]
    fn cv_step_fixed_preserves_properness_on_chains() {
        // For any pairwise-distinct triple along an oriented path,
        // f(x←y) ≠ f(y←z) — no monotonicity needed with fixed widths.
        for x in 0..64u64 {
            for y in 0..64u64 {
                for z in 0..64u64 {
                    if x != y && y != z {
                        assert_ne!(
                            cv_step_fixed(x, y, 6),
                            cv_step_fixed(y, z, 6),
                            "x={x} y={y} z={z}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn width_schedule_shrinks_like_log_star() {
        assert_eq!(width_schedule(5), vec![3]);
        assert_eq!(width_schedule(63), vec![6, 4, 3]);
        let s = width_schedule(u64::MAX);
        assert_eq!(s, vec![64, 7, 4, 3]);
        // Monotone decreasing, ends at 3.
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn three_colors_on_synchronous_rings() {
        for n in [3usize, 4, 7, 20, 100] {
            let ids = inputs::random_unique(n, (n as u64).pow(3).max(10), 42);
            let (topo, report) = run_ring(ids, Synchronous::new());
            assert!(report.all_returned(), "n={n}");
            let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
            assert!(topo.is_proper_coloring(&colors), "n={n}: {colors:?}");
            assert!(colors.iter().all(|&c| c <= 2), "n={n}: {colors:?}");
        }
    }

    #[test]
    fn round_count_matches_width_schedule() {
        let n = 64;
        let ids = inputs::random_unique(n, 1 << 50, 7);
        let alg = ColeVishkinThree::for_max_id(*ids.iter().max().unwrap());
        let expected = u64::from(alg.total_rounds());
        let (_, report) = run_ring(ids, Synchronous::new());
        assert_eq!(report.max_activations(), expected);
        // log*-flavor: 50-bit ids need only 4 reduction rounds.
        assert_eq!(alg.phase1_rounds(), 4);
    }

    #[test]
    fn synchronizer_tolerates_async_fair_schedules() {
        // The α-synchronizer makes the baseline run (slowly) under any
        // fair schedule — though it stalls forever under crashes, unlike
        // the paper's algorithms.
        let n = 8;
        let ids = inputs::random_unique(n, 1000, 3);
        let (topo, report) = run_ring(ids.clone(), RoundRobin::new());
        assert!(report.all_returned());
        let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
        assert!(topo.is_proper_coloring(&colors));
        assert!(colors.iter().all(|&c| c <= 2));

        let (topo, report) = run_ring(ids, RandomSubset::new(11, 0.4));
        assert!(report.all_returned());
        let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
        assert!(topo.is_proper_coloring(&colors));
    }

    #[test]
    fn crash_stalls_the_baseline() {
        // Crash one node before it ever runs: its neighbors can never
        // complete round 0 and the execution cannot terminate — the
        // motivating failure the paper's wait-free algorithms avoid.
        let n = 6;
        let ids = inputs::random_unique(n, 100, 1);
        let alg = ColeVishkinThree::for_max_id(*ids.iter().max().unwrap());
        let topo = Topology::cycle(n).unwrap();
        let inputs_v: Vec<CvInput> = ids
            .iter()
            .enumerate()
            .map(|(pos, &x)| CvInput { x, pos, n })
            .collect();
        let mut exec = Execution::new(&alg, &topo, inputs_v);
        let sched = CrashPlan::new(Synchronous::new(), [(ProcessId(0), 1)]);
        // Fuel runs out with everyone else still alive but stuck at
        // round 0: the baseline is not wait-free.
        let err = exec.run(sched, 5_000).unwrap_err();
        assert!(matches!(
            err,
            ftcolor_model::ModelError::NonTermination { .. }
        ));
        assert_eq!(exec.outputs()[1], None);
        assert_eq!(exec.outputs()[n - 1], None);
    }

    #[test]
    #[should_panic(expected = "distinct adjacent values")]
    fn cv_step_rejects_equal_values() {
        cv_step_fixed(5, 5, 3);
    }
}
