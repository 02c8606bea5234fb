//! Wait-free rank-based **(2n−1)-renaming** in the clique — the
//! shared-memory algorithm that Algorithm 2 "bears resemblance to"
//! (§1.3; [Attiya, Welch, *Distributed Computing*, Algorithm 55] and
//! [Attiya et al., JACM 1990, Algorithm A, step 4]).
//!
//! On the clique `K_n` our state model coincides with the standard
//! wait-free shared-memory model with immediate snapshots (§2.1), so this
//! classic algorithm runs unchanged on the [`ftcolor_model`] substrate:
//!
//! ```text
//! s ← 0
//! loop:
//!   write (X_p, s); read everyone
//!   if s collides with someone else's proposal:
//!       r ← rank of X_p among the participating identifiers (1-based)
//!       s ← r-th smallest name not proposed by anyone else
//!   else return s
//! ```
//!
//! With at most `n` participants, the `r`-th free name among at most
//! `n − 1` occupied ones is at most `(n − 1) + r − 1 ≤ 2n − 2`, giving the
//! name space `{0, …, 2n−2}` of size `2n − 1` — optimal for `n` a prime
//! power (Property 2.3 builds on exactly this bound for `n = 3`).

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use serde::{Deserialize, Serialize};

/// Register contents: identifier plus current name proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RenameReg {
    /// The process's input identifier.
    pub x: u64,
    /// The currently proposed name.
    pub proposal: u64,
}

/// The `r`-th smallest natural number (1-based `r`) not contained in
/// `taken`. `taken` need not be sorted or deduplicated.
fn kth_free_name(taken: impl IntoIterator<Item = u64>, r: u64) -> u64 {
    assert!(r >= 1, "rank is 1-based");
    let mut t: Vec<u64> = taken.into_iter().collect();
    t.sort_unstable();
    t.dedup();
    let mut remaining = r;
    let mut candidate = 0u64;
    let mut it = t.into_iter().peekable();
    loop {
        if it.peek() == Some(&candidate) {
            it.next();
        } else {
            remaining -= 1;
            if remaining == 0 {
                return candidate;
            }
        }
        candidate += 1;
    }
}

/// The rank-based renaming algorithm. Run it on
/// [`Topology::clique`](ftcolor_model::Topology::clique).
///
/// ```
/// use ftcolor_core::renaming::RankRenaming;
/// use ftcolor_model::prelude::*;
///
/// # fn main() -> Result<(), ftcolor_model::ModelError> {
/// let n = 5;
/// let topo = Topology::clique(n)?;
/// let mut exec = Execution::new(&RankRenaming, &topo, vec![900, 17, 53, 204, 88]);
/// let report = exec.run(RoundRobin::new(), 100_000)?;
/// assert!(report.all_returned());
/// let names: Vec<u64> = report.outputs.iter().map(|o| o.unwrap()).collect();
/// let mut sorted = names.clone();
/// sorted.sort_unstable();
/// sorted.dedup();
/// assert_eq!(sorted.len(), n, "names are distinct");
/// assert!(names.iter().all(|&s| s <= 2 * n as u64 - 2), "2n−1 name space");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RankRenaming;

impl RankRenaming {
    /// Creates the algorithm object (stateless; all state is per-process).
    pub fn new() -> Self {
        RankRenaming
    }
}

impl Algorithm for RankRenaming {
    type Input = u64;
    type State = RenameReg;
    type Reg = RenameReg;
    type Output = u64;

    fn init(&self, _id: ProcessId, input: u64) -> RenameReg {
        RenameReg {
            x: input,
            proposal: 0,
        }
    }

    fn publish(&self, state: &RenameReg) -> RenameReg {
        *state
    }

    fn step(&self, state: &mut RenameReg, view: &Neighborhood<'_, RenameReg>) -> Step<u64> {
        let collision = view.awake().any(|r| r.proposal == state.proposal);
        if !collision {
            return Step::Return(state.proposal);
        }
        // 1-based rank of our identifier among the participants we see
        // (ourselves included).
        let rank = 1 + view.awake().filter(|r| r.x < state.x).count() as u64;
        state.proposal = kth_free_name(view.awake().map(|r| r.proposal), rank);
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_model::inputs;
    use ftcolor_model::prelude::*;

    fn assert_valid(n: usize, report: &ExecutionReport<u64>) {
        let names: Vec<u64> = report.outputs.iter().flatten().copied().collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names: {names:?}");
        assert!(
            names.iter().all(|&s| s <= 2 * n as u64 - 2),
            "name out of 2n−1 space: {names:?}"
        );
    }

    #[test]
    fn kth_free_name_cases() {
        assert_eq!(kth_free_name([], 1), 0);
        assert_eq!(kth_free_name([0], 1), 1);
        assert_eq!(kth_free_name([0, 2], 1), 1);
        assert_eq!(kth_free_name([0, 2], 2), 3);
        assert_eq!(kth_free_name([], 3), 2);
        assert_eq!(kth_free_name([1, 3], 1), 0);
        assert_eq!(kth_free_name([1, 3], 2), 2);
        assert_eq!(kth_free_name([1, 3], 3), 4);
        assert_eq!(kth_free_name([0, 1, 2, 3, 4], 2), 6);
        assert_eq!(kth_free_name([5, 5, 5], 6), 6);
    }

    #[test]
    fn solo_runner_gets_name_zero() {
        let topo = Topology::clique(4).unwrap();
        let mut exec = Execution::new(&RankRenaming, &topo, vec![40, 10, 30, 20]);
        let report = exec.run(SoloRunner::ascending(4), 1000).unwrap();
        // Each solo process sees only returned proposals; first one sees
        // nothing and keeps 0.
        assert_eq!(report.outputs[0], Some(0));
        assert!(report.all_returned());
        assert_valid(4, &report);
    }

    #[test]
    fn renames_under_many_schedules() {
        for n in [2usize, 3, 5, 8] {
            for seed in 0..8u64 {
                let topo = Topology::clique(n).unwrap();
                let ids = inputs::random_unique(n, 10_000, seed);

                let mut exec = Execution::new(&RankRenaming, &topo, ids.clone());
                let report = exec.run(Synchronous::new(), 100_000).unwrap();
                assert!(report.all_returned(), "sync n={n} seed={seed}");
                assert_valid(n, &report);

                let mut exec = Execution::new(&RankRenaming, &topo, ids.clone());
                let report = exec
                    .run(RandomSubset::new(seed * 5 + 1, 0.5), 1_000_000)
                    .unwrap();
                assert!(report.all_returned(), "rand n={n} seed={seed}");
                assert_valid(n, &report);
            }
        }
    }

    #[test]
    fn crashes_tolerated() {
        let n = 6;
        let topo = Topology::clique(n).unwrap();
        for seed in 0..6u64 {
            let ids = inputs::random_unique(n, 100_000, seed);
            // At least one crash at time 1: that process never wakes up.
            let crashes = (0..n).filter(|&i| i as u64 % 3 == seed % 3).map(|i| {
                (
                    ProcessId(i),
                    if i as u64 % 6 == seed % 6 {
                        1
                    } else {
                        seed % 4 + 2
                    },
                )
            });
            let sched = CrashPlan::new(RandomSubset::new(seed, 0.5), crashes);
            let mut exec = Execution::new(&RankRenaming, &topo, ids);
            let report = exec.run(sched, 1_000_000).unwrap();
            assert_valid(n, &report);
            assert!(report.returned_count() < n, "seed {seed}");
        }
    }

    #[test]
    fn synchronous_names_follow_rank() {
        // Under full synchrony everyone sees everyone from round 1: all
        // collide on proposal 0, each re-proposes its rank-th free name
        // among {0}, i.e. exactly its 1-based identifier rank, and those
        // are already distinct — names {1, …, n}.
        let n = 5;
        let topo = Topology::clique(n).unwrap();
        let ids = vec![50, 10, 40, 20, 30];
        let mut exec = Execution::new(&RankRenaming, &topo, ids.clone());
        let report = exec.run(Synchronous::new(), 10_000).unwrap();
        assert!(report.all_returned());
        for (i, &x) in ids.iter().enumerate() {
            let rank_1based = 1 + ids.iter().filter(|&&y| y < x).count() as u64;
            assert_eq!(report.outputs[i], Some(rank_1based), "process {i}");
        }
    }

    #[test]
    fn c3_coloring_equals_renaming_property_2_3() {
        // On K3 = C3 the model is 3-process shared memory; both renaming
        // and cycle-coloring must produce pairwise-distinct outputs.
        let topo = Topology::clique(3).unwrap();
        for seed in 0..10u64 {
            let ids = inputs::random_unique(3, 1000, seed);
            let mut exec = Execution::new(&RankRenaming, &topo, ids);
            let report = exec
                .run(RandomSubset::new(seed + 77, 0.6), 100_000)
                .unwrap();
            assert!(report.all_returned());
            assert_valid(3, &report);
            // Name space {0..4} = 5 names: the Property 2.3 bound.
            assert!(report.outputs.iter().flatten().all(|&s| s <= 4));
        }
    }
}
