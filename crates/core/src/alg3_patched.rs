//! Algorithm 3 with the patched coloring component — the repair story
//! completed for the headline algorithm.
//!
//! [`crate::alg3`] inherits [`crate::alg2`]'s livelock because it embeds
//! Algorithm 2 verbatim. This variant embeds
//! [`crate::alg2_patched`]'s counter-priority arbitration instead, and
//! keeps the identifier-reduction component (green-light `r_p`
//! synchronization, Cole–Vishkin `f`) exactly as in the paper. The
//! register carries Algorithm 3's fields plus the update counter.
//!
//! Everything established for the patched Algorithm 2 carries over:
//! safety (palette `{0,…,4}`, properness, the Lemma 4.5 identifier
//! invariant) is the paper's verbatim; no execution can revisit a
//! configuration; the documented adversaries terminate; and the
//! `O(log* n)` activation bound holds across the schedule zoo.
//!
//! One subtlety: the identifier reduction makes the evolving `X` values
//! non-unique at distance ≥ 2, but priority compares `(c, X)` only
//! against *adjacent* processes, whose identifiers stay distinct
//! (Lemma 4.5) — so arbitration ties remain impossible.

use crate::alg3::Rank;
use crate::cole_vishkin::reduce;
use crate::color::mex;
use ftcolor_model::{Algorithm, Neighborhood, PorCert, ProcessId, Step};
use serde::{Deserialize, Serialize};

/// Register contents: Algorithm 3's fields plus the update counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg3P {
    /// The evolving identifier `X_p`.
    pub x: u64,
    /// The green-light counter `r_p`.
    pub r: Rank,
    /// First color candidate.
    pub a: u64,
    /// Second color candidate.
    pub b: u64,
    /// Color-update counter (priority arbitration).
    pub c: u64,
}

/// Private state: register plus the previous view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State3P {
    /// The published part.
    pub reg: Reg3P,
    /// Neighbor registers read at the previous activation, by view
    /// position (`None` before the first activation; inner `None`s are
    /// `⊥` registers). Inline because Algorithm 3 runs on degree-2
    /// nodes only; it hashes to the same bytes as the `Vec` it replaced
    /// (a length prefix, then the entries).
    pub last_view: Option<[Option<Reg3P>; 2]>,
}

/// Algorithm 3 with the patched coloring component. Cycle-only, like
/// Algorithm 3.
///
/// ```
/// use ftcolor_core::alg3_patched::FastFiveColoringPatched;
/// use ftcolor_model::prelude::*;
/// use ftcolor_model::inputs;
///
/// # fn main() -> Result<(), ftcolor_model::ModelError> {
/// let n = 500;
/// let topo = Topology::cycle(n)?;
/// let mut exec = Execution::new(&FastFiveColoringPatched, &topo, inputs::staircase_poly(n));
/// let report = exec.run(Synchronous::new(), 100_000)?;
/// assert!(report.all_returned());
/// assert!(report.max_activations() < 60);
/// let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
/// assert!(topo.is_proper_coloring(&colors));
/// assert!(colors.iter().all(|&c| c <= 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastFiveColoringPatched;

impl FastFiveColoringPatched {
    /// Creates the algorithm object (stateless; all state is per-process).
    pub fn new() -> Self {
        FastFiveColoringPatched
    }
}

impl Algorithm for FastFiveColoringPatched {
    type Input = u64;
    type State = State3P;
    type Reg = Reg3P;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: u64) -> State3P {
        State3P {
            reg: Reg3P {
                x: input,
                r: Rank::Finite(0),
                a: 0,
                b: 0,
                c: 0,
            },
            last_view: None,
        }
    }

    fn publish(&self, state: &State3P) -> Reg3P {
        state.reg
    }

    /// One round: the patched coloring component followed by the paper's
    /// identifier-reduction component.
    ///
    /// # Panics
    ///
    /// Panics unless the process has exactly two neighbors (cycle-only).
    fn step(&self, state: &mut State3P, view: &Neighborhood<'_, Reg3P>) -> Step<u64> {
        assert_eq!(view.len(), 2, "Algorithm 3 runs on cycles (degree 2)");
        let current = [view.reg(0).copied(), view.reg(1).copied()];

        // Coloring component, patched (alg2_patched semantics).
        let in_c = |v: u64| view.awake().any(|r| r.a == v || r.b == v);
        if !in_c(state.reg.a) {
            return Step::Return(state.reg.a);
        }
        if !in_c(state.reg.b) {
            return Step::Return(state.reg.b);
        }
        let me = state.reg;
        let new_a = mex(view.awake().filter(|r| r.x > me.x).flat_map(|r| [r.a, r.b]));
        let new_b = mex(view.awake().flat_map(|r| [r.a, r.b]));
        let escape = state.last_view == Some(current);
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

        // Identifier component — paper lines 11–19, verbatim (a ⊥
        // neighbor withholds the green light, as in `crate::alg3`).
        if state.reg.r.is_finite() {
            if let (Some(q), Some(q2)) = (view.reg(0), view.reg(1)) {
                if state.reg.r <= q.r.min(q2.r) {
                    let (xmin, xmax) = (q.x.min(q2.x), q.x.max(q2.x));
                    if xmin < state.reg.x && state.reg.x < xmax {
                        state.reg.r = state.reg.r.incr();
                        let y = reduce(state.reg.x, xmin);
                        if y < xmin {
                            state.reg.x = y;
                        }
                    } else {
                        state.reg.r = Rank::Omega;
                        if state.reg.x < xmin {
                            let candidate =
                                mex([reduce(q.x, state.reg.x), reduce(q2.x, state.reg.x)]);
                            state.reg.x = state.reg.x.min(candidate);
                        }
                    }
                }
            }
        }
        state.last_view = Some(current);
        Step::Continue
    }

    // Both view reads are symmetric in the two neighbors (multiset folds
    // and `min`/`max`/`mex` over `{reg(0), reg(1)}`), but `last_view` is
    // stored by view position and must be reindexed under relabeling,
    // exactly as in [`crate::alg2_patched`].
    fn relabel_view(&self, state: &mut State3P, perm: &[usize]) -> bool {
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
    use ftcolor_model::logstar::log_star_u64;
    use ftcolor_model::prelude::*;
    use std::hash::{Hash, Hasher};

    fn reg(x: u64) -> Reg3P {
        Reg3P {
            x,
            r: Rank::Finite((x % 3) as u32),
            a: x % 5,
            b: (x + 1) % 5,
            c: x / 2,
        }
    }

    #[test]
    fn relabel_view_swaps_the_inline_view() {
        let alg = FastFiveColoringPatched;
        let mut s = alg.init(ProcessId(0), 7);
        assert!(alg.relabel_view(&mut s, &[1, 0]));
        assert_eq!(s.last_view, None);
        s.last_view = Some([Some(reg(3)), None]);
        assert!(alg.relabel_view(&mut s, &[1, 0]));
        assert_eq!(s.last_view, Some([None, Some(reg(3))]));
        assert!(alg.relabel_view(&mut s, &[0, 1]));
        assert_eq!(s.last_view, Some([None, Some(reg(3))]));
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
        // The `State3P` layout before the view moved inline.
        #[derive(Hash)]
        struct VecState {
            reg: Reg3P,
            last_view: Option<Vec<Option<Reg3P>>>,
        }
        let views = [
            None,
            Some([None, None]),
            Some([Some(reg(4)), None]),
            Some([None, Some(reg(9))]),
            Some([Some(reg(1)), Some(reg(2))]),
        ];
        for last_view in views {
            let inline = State3P {
                reg: reg(11),
                last_view,
            };
            let old = VecState {
                reg: reg(11),
                last_view: last_view.map(|v| v.to_vec()),
            };
            assert_eq!(hash_bytes(&inline), hash_bytes(&old), "{last_view:?}");
        }
    }

    /// The `Rank` layout before `k` narrowed to `u32`, with its derives.
    #[derive(Hash, Serialize)]
    enum WideRank {
        Finite(u64),
        Omega,
    }

    #[test]
    fn rank_hashes_like_the_wide_enum_it_replaced() {
        for k in [0, 1, u32::MAX] {
            assert_eq!(
                hash_bytes(&Rank::Finite(k)),
                hash_bytes(&WideRank::Finite(u64::from(k))),
                "Finite({k})"
            );
        }
        assert_eq!(hash_bytes(&Rank::Omega), hash_bytes(&WideRank::Omega));
    }

    #[test]
    fn alg3_types_keep_their_sizes() {
        use crate::alg3::Reg3;
        use std::mem::size_of;
        assert_eq!(size_of::<Rank>(), 8);
        assert_eq!(size_of::<Reg3>(), 32);
        assert_eq!(size_of::<Option<Reg3>>(), 32);
        assert_eq!(size_of::<Reg3P>(), 40);
        assert_eq!(size_of::<Option<Reg3P>>(), 40);
        assert_eq!(size_of::<State3P>(), 120);
    }

    /// `reg(x)`'s encoding with its `r` field replaced by `r`.
    fn reg_value_with_rank(x: u64, r: &WideRank) -> serde::Value {
        let mut value = reg(x).to_value();
        let serde::Value::Object(fields) = &mut value else {
            panic!("Reg3P encodes as an object: {value:?}");
        };
        let field = fields
            .iter_mut()
            .find(|(k, _)| k == "r")
            .expect("an r field");
        field.1 = r.to_value();
        value
    }

    #[test]
    fn a_rank_beyond_u32_is_refused_not_truncated() {
        let edge = reg_value_with_rank(4, &WideRank::Finite(u64::from(u32::MAX)));
        let decoded = Reg3P::from_value(&edge).expect("u32::MAX fits");
        assert_eq!(decoded.r, Rank::Finite(u32::MAX));
        assert_eq!(decoded.to_value(), edge, "the encoding is unchanged");

        let wide = reg_value_with_rank(4, &WideRank::Finite(u64::from(u32::MAX) + 1));
        let err = Reg3P::from_value(&wide).expect_err("2^32 does not fit");
        assert!(err.to_string().contains("overflows u32"), "{err}");
    }

    fn assert_valid(topo: &Topology, outputs: &[Option<u64>]) {
        assert!(topo.is_proper_partial_coloring(outputs));
        assert!(outputs.iter().flatten().all(|&c| c <= 4));
    }

    fn logstar_bound(n: usize) -> u64 {
        40 + 20 * u64::from(log_star_u64(n as u64))
    }

    #[test]
    fn escapes_the_alg3_c3_livelock_adversary() {
        // The generic starvation strategy that kills unpatched Algorithm 3
        // (let one process return, lockstep the rest).
        let topo = Topology::cycle(3).unwrap();
        for ids in [vec![10u64, 20, 30], vec![0, 1, 2], vec![99, 5, 47]] {
            let min_pos = (0..3).min_by_key(|&i| ids[i]).unwrap();
            let mut exec = Execution::new(&FastFiveColoringPatched, &topo, ids.clone());
            let report = exec.run_adaptive(
                |e| {
                    if e.outputs()[min_pos].is_none() {
                        Some(ActivationSet::solo(ProcessId(min_pos)))
                    } else {
                        Some(ActivationSet::of(e.working().to_vec()))
                    }
                },
                5_000,
            );
            let report = report.unwrap_or_else(|e| panic!("ids {ids:?}: starved: {e:?}"));
            assert!(report.all_returned());
            assert_valid(&topo, &report.outputs);
        }
    }

    #[test]
    fn staircase_stays_logstar() {
        for n in [10usize, 100, 1_000, 10_000] {
            let ids = inputs::staircase_poly(n);
            let topo = Topology::cycle(n).unwrap();
            let mut exec = Execution::new(&FastFiveColoringPatched, &topo, ids);
            let report = exec.run(Synchronous::new(), 100_000).unwrap();
            assert!(report.all_returned(), "n={n}");
            assert_valid(&topo, &report.outputs);
            assert!(
                report.max_activations() <= logstar_bound(n),
                "n={n}: {}",
                report.max_activations()
            );
        }
    }

    #[test]
    fn identifiers_stay_proper_lemma_4_5() {
        for seed in 0..8u64 {
            let n = 9;
            let ids = inputs::random_unique(n, 10_000, seed);
            let topo = Topology::cycle(n).unwrap();
            let mut exec = Execution::new(&FastFiveColoringPatched, &topo, ids);
            let mut sched = RandomSubset::new(seed * 11 + 2, 0.45);
            for t in 0..3000u64 {
                if exec.all_returned() {
                    break;
                }
                let set = sched.next(t + 1, exec.working()).unwrap();
                exec.step_with(&set);
                for (p, q) in topo.edges() {
                    assert_ne!(
                        exec.state(p).reg.x,
                        exec.state(q).reg.x,
                        "seed {seed}: X collision on {p}-{q}"
                    );
                }
            }
            assert!(exec.all_returned(), "seed {seed}");
            assert_valid(&topo, exec.outputs());
        }
    }

    #[test]
    fn crash_sweeps_all_survivors_return() {
        let n = 40;
        let topo = Topology::cycle(n).unwrap();
        for seed in 0..6u64 {
            let ids = inputs::random_unique(n, 1 << 30, seed);
            let crash_ids: std::collections::HashSet<usize> =
                (0..n).filter(|&i| i as u64 % 4 == seed % 4).collect();
            let crashes = crash_ids.iter().map(|&i| (ProcessId(i), seed % 6 + 1));
            let sched = CrashPlan::new(Synchronous::new(), crashes);
            let mut exec = Execution::new(&FastFiveColoringPatched, &topo, ids);
            let report = exec.run(sched, 100_000).unwrap();
            assert_valid(&topo, &report.outputs);
            for i in 0..n {
                if !crash_ids.contains(&i) {
                    assert!(report.outputs[i].is_some(), "seed {seed}: p{i} starved");
                }
            }
        }
    }

    #[test]
    fn solo_schedule_comparable_to_unpatched() {
        // Arbitration can defer an update by an activation even in solo
        // runs (priority against a returned neighbor's frozen counter),
        // so trajectories may differ — but both terminate with valid
        // colorings in comparable round counts.
        let n = 10;
        let ids = inputs::random_unique(n, 1 << 20, 3);
        let topo = Topology::cycle(n).unwrap();

        let mut a = Execution::new(&crate::FastFiveColoring, &topo, ids.clone());
        let ra = a.run(SoloRunner::ascending(n), 100_000).unwrap();
        let mut b = Execution::new(&FastFiveColoringPatched, &topo, ids);
        let rb = b.run(SoloRunner::ascending(n), 100_000).unwrap();
        assert!(ra.all_returned() && rb.all_returned());
        assert_valid(&topo, &ra.outputs);
        assert_valid(&topo, &rb.outputs);
        assert!(rb.max_activations() <= 3 * ra.max_activations() + 6);
    }
}
