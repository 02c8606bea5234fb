//! Monotone-chain analysis of identifier assignments on the cycle.
//!
//! The linear-time algorithms' convergence is governed by the *monotone
//! distance* of each process to its nearest local extrema (§3.1):
//! Lemma 3.9 bounds Algorithm 1's activations of a non-extremal process
//! by `min{3ℓ, 3ℓ′, ℓ + ℓ′} + 4`, where `ℓ`/`ℓ′` are the distances to the
//! closest local maximum/minimum along monotone subpaths.
//!
//! [`ChainAnalysis`] computes these distances for a cyclic identifier
//! assignment; experiment E2 checks measured per-process activation
//! counts against the Lemma 3.9 bound. Algorithm 2's Lemma 3.14 bound is
//! not checked: read as `3ℓ + 4` for non-minima, it fails under
//! round-robin schedules (ids `[1, 3, 0, 2, 4]`: the local maximum p4
//! takes 5 activations against 4), and only the full text can tell a
//! misreading from a finding.

/// Per-process monotone distances for a cyclic identifier assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainAnalysis {
    /// `dist_to_max[p]`: length of the shortest strictly-increasing
    /// subpath from `p` to a local maximum (0 when `p` is itself one).
    pub dist_to_max: Vec<usize>,
    /// `dist_to_min[p]`: length of the shortest strictly-decreasing
    /// subpath from `p` to a local minimum (0 when `p` is itself one).
    pub dist_to_min: Vec<usize>,
}

impl ChainAnalysis {
    /// Analyzes an identifier assignment in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() < 3` or if two *adjacent* identifiers are
    /// equal (the input must properly color the cycle).
    pub fn for_cycle(ids: &[u64]) -> Self {
        let n = ids.len();
        assert!(n >= 3, "cycle needs n ≥ 3");
        for i in 0..n {
            assert_ne!(
                ids[i],
                ids[(i + 1) % n],
                "adjacent identifiers must differ (position {i})"
            );
        }
        let mut dist_to_max = vec![0usize; n];
        let mut dist_to_min = vec![0usize; n];
        for p in 0..n {
            dist_to_max[p] = Self::walk(ids, p, true);
            dist_to_min[p] = Self::walk(ids, p, false);
        }
        ChainAnalysis {
            dist_to_max,
            dist_to_min,
        }
    }

    /// Length of the shortest strictly monotone walk from `p` to a local
    /// extremum (`up = true`: increasing walk to a local max; otherwise
    /// decreasing to a local min).
    ///
    /// A strictly monotone walk that takes at least one step necessarily
    /// ends at a local extremum: the node it stops at beats both its
    /// walk-predecessor (by monotonicity) and its forward neighbor (the
    /// stopping condition). Since adjacent identifiers differ, a full
    /// monotone wrap around the cycle is impossible.
    fn walk(ids: &[u64], p: usize, up: bool) -> usize {
        if Self::is_extremum_for(ids, p, up) {
            return 0;
        }
        let n = ids.len();
        let better = |a: u64, b: u64| if up { b > a } else { b < a };
        let mut best = usize::MAX;
        for dir in [1usize, n - 1] {
            let mut cur = p;
            let mut steps = 0usize;
            while steps <= n && better(ids[cur], ids[(cur + dir) % n]) {
                cur = (cur + dir) % n;
                steps += 1;
            }
            if steps > 0 {
                best = best.min(steps);
            }
        }
        debug_assert_ne!(
            best,
            usize::MAX,
            "a non-extremum always has a monotone step"
        );
        best
    }

    fn is_extremum_for(ids: &[u64], v: usize, up: bool) -> bool {
        let n = ids.len();
        let a = ids[(v + 1) % n];
        let b = ids[(v + n - 1) % n];
        if up {
            ids[v] > a && ids[v] > b
        } else {
            ids[v] < a && ids[v] < b
        }
    }

    /// The Lemma 3.9 activation bound for process `p` under Algorithm 1:
    /// `min{3ℓ, 3ℓ′, ℓ+ℓ′} + 4` for non-extremal processes, `4` for
    /// extremal ones (Lemma 3.4's corollary).
    pub fn lemma_3_9_bound(&self, p: usize) -> u64 {
        let l = self.dist_to_max[p] as u64;
        let l2 = self.dist_to_min[p] as u64;
        (3 * l).min(3 * l2).min(l + l2) + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::SixColoring;
    use ftcolor_model::inputs;
    use ftcolor_model::prelude::*;

    #[test]
    fn staircase_distances() {
        // ids 0,1,2,3,4: position 4 is the unique local max, position 0
        // the unique local min — and they are *adjacent* across the wrap
        // edge, so each is one monotone step from the other.
        let a = ChainAnalysis::for_cycle(&[0, 1, 2, 3, 4]);
        assert_eq!(a.dist_to_max, vec![1, 3, 2, 1, 0]);
        assert_eq!(a.dist_to_min, vec![0, 1, 2, 3, 1]);
    }

    #[test]
    fn organ_pipe_distances() {
        // 0,2,4,6,8,9,7,5,3,1: max at position 5 (id 9), min at 0 (id 0).
        let ids = inputs::organ_pipe(10);
        let a = ChainAnalysis::for_cycle(&ids);
        assert_eq!(a.dist_to_max[5], 0);
        assert_eq!(a.dist_to_min[0], 0);
        // Position 1 (id 2): 4 increasing steps to the max going right,
        // 1 decreasing step to the min going left... to the *max* the
        // other way: 2 → 0 is decreasing, so only the right walk counts.
        assert_eq!(a.dist_to_max[1], 4);
        assert_eq!(a.dist_to_min[1], 1);
        // Position 6 (id 7): one step up to 9, three steps down to... 7 →
        // 5 → 3 → 1 then 1 → 0: four decreasing steps to the min.
        assert_eq!(a.dist_to_max[6], 1);
        assert_eq!(a.dist_to_min[6], 4);
    }

    #[test]
    fn alternating_everyone_is_extremal() {
        let ids = inputs::alternating(8);
        let a = ChainAnalysis::for_cycle(&ids);
        for p in 0..8 {
            assert!(
                a.dist_to_max[p] == 0 || a.dist_to_min[p] == 0,
                "position {p}"
            );
            assert!(a.lemma_3_9_bound(p) <= 7);
        }
    }

    #[test]
    fn local_min_can_reach_max_both_ways() {
        // 5, 0, 3, 9, 7: position 1 (id 0) is the min; going right:
        // 0<3<9: 2 steps to the max at position 3; going left: 0<5: 1
        // step — but is 5 a local max? neighbors 7 and 0: 5 < 7, no.
        // So dist_to_max[1] = 2.
        let a = ChainAnalysis::for_cycle(&[5, 0, 3, 9, 7]);
        assert_eq!(a.dist_to_max[1], 2);
        assert_eq!(a.dist_to_min[1], 0);
        // Position 4 (id 7): 7 < 9 one step left to the max; 7 > 5 > 0:
        // two steps right to the min (0).
        assert_eq!(a.dist_to_max[4], 1);
        assert_eq!(a.dist_to_min[4], 2);
    }

    #[test]
    fn lemma_3_9_bound_holds_on_executions() {
        // The per-process refinement of Theorem 3.1 (experiment E2 in
        // miniature): measured activations ≤ min{3ℓ, 3ℓ′, ℓ+ℓ′} + 4.
        for seed in 0..10u64 {
            let n = 14;
            let ids = inputs::random_permutation(n, seed);
            let analysis = ChainAnalysis::for_cycle(&ids);
            let topo = Topology::cycle(n).unwrap();
            let mut exec = Execution::new(&SixColoring, &topo, ids);
            let report = exec.run(Synchronous::new(), 100_000).unwrap();
            for p in 0..n {
                assert!(
                    report.activations[p] <= analysis.lemma_3_9_bound(p),
                    "seed {seed} p{p}: {} > {}",
                    report.activations[p],
                    analysis.lemma_3_9_bound(p)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "adjacent identifiers must differ")]
    fn rejects_improper_inputs() {
        ChainAnalysis::for_cycle(&[1, 1, 2]);
    }
}
