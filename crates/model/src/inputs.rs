//! Identifier assignments — the inputs `X_p`.
//!
//! The paper gives each process a unique identifier in `[0, poly(n)]`
//! (§2.1). The *arrangement* of identifiers around the cycle controls the
//! running time of the linear-time algorithms: Lemma 3.9 bounds a
//! process's activations by its monotone distance to a local extremum, so
//! the adversarial input is a single long monotone chain (a *staircase*),
//! and the friendliest input alternates small/large (every process is a
//! local extremum).
//!
//! Remark 3.10 notes the algorithms only need the inputs to *properly
//! color* the cycle, not to be globally unique; [`proper_k_coloring`]
//! produces such relaxed inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `0, 1, 2, …, n−1` in cycle order: one monotone chain of length `n−1` —
/// the worst case for Algorithms 1 and 2 (Θ(n) activations).
pub fn staircase(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// A staircase stretched into `[0, n³]`: same adversarial arrangement,
/// identifiers of realistic `poly(n)` magnitude (so the Cole–Vishkin
/// reduction of Algorithm 3 has real work to do).
pub fn staircase_poly(n: usize) -> Vec<u64> {
    let n64 = n as u64;
    let stretch = (n64 * n64).max(1);
    (0..n64).map(|i| i * stretch + 1).collect()
}

/// Alternating small/large identifiers: `0, n, 1, n+1, 2, …`. Every
/// process is a local extremum (for even `n`), so monotone chains have
/// length 1 and the linear-time algorithms finish in O(1) activations.
pub fn alternating(n: usize) -> Vec<u64> {
    let half = n as u64;
    (0..n as u64)
        .map(|i| if i % 2 == 0 { i / 2 } else { half + i / 2 })
        .collect()
}

/// Organ-pipe arrangement: rises `0, 2, 4, …` to a peak then falls
/// `…, 5, 3, 1` — exactly two monotone chains of length ≈ n/2 and exactly
/// two local extrema.
pub fn organ_pipe(n: usize) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64).step_by(2).collect();
    let mut high: Vec<u64> = (1..n as u64).step_by(2).collect();
    high.reverse();
    v.extend(high);
    v
}

/// A uniformly random permutation of `n` unique identifiers drawn from
/// `[0, max)`, seeded for reproducibility.
///
/// # Panics
///
/// Panics if `max < n as u64` (not enough identifiers to be unique).
pub fn random_unique(n: usize, max: u64, seed: u64) -> Vec<u64> {
    assert!(max >= n as u64, "need at least n identifiers below max");
    let mut rng = StdRng::seed_from_u64(seed);
    if max <= 4 * n as u64 {
        // Dense range: shuffle and take a prefix.
        let mut all: Vec<u64> = (0..max).collect();
        all.shuffle(&mut rng);
        all.truncate(n);
        all
    } else {
        // Sparse range: rejection-sample distinct values.
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let x = rng.gen_range(0..max);
            if seen.insert(x) {
                out.push(x);
            }
        }
        out
    }
}

/// A random permutation of `0..n` — unique identifiers in the tightest
/// possible range.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u64> {
    random_unique(n, n as u64, seed)
}

/// Sawtooth arrangement with teeth of length `k`: identifiers rise for
/// `k` steps, drop, rise again — every monotone chain has exactly `k`
/// edges (up to boundary effects), making the Lemma 3.9 convergence time
/// a direct function of `k`. Identifiers stay unique by striping each
/// tooth into its own value band.
///
/// # Panics
///
/// Panics if `k == 0` or `n == 0`.
pub fn sawtooth(n: usize, k: usize) -> Vec<u64> {
    assert!(k > 0 && n > 0, "need a positive tooth length and size");
    if k == 1 {
        // Degenerate teeth: the alternating arrangement is exactly the
        // chain-length-1 instance.
        return alternating(n);
    }
    // Triangle wave of period 2k, striped per period for uniqueness:
    // rising phases take even heights 0,2,…,2k; falling phases take odd
    // heights 2k−1,…,3 — so values within a period never repeat and the
    // wave stays strictly monotone along each flank.
    let period = 2 * k;
    let stripe = (4 * k + 4) as u64;
    (0..n)
        .map(|i| {
            let ph = i % period;
            let base = (i / period) as u64 * stripe;
            if ph <= k {
                base + 2 * ph as u64
            } else {
                base + 2 * (period - ph) as u64 + 1
            }
        })
        .collect()
}

/// Inputs that are *not* unique but properly color the cycle with `k ≥ 3`
/// values (Remark 3.10): position `i` gets `i mod k`, with the tail
/// patched so the wrap-around edge is also proper.
///
/// # Panics
///
/// Panics if `k < 3` or `n < 3`.
pub fn proper_k_coloring(n: usize, k: u64) -> Vec<u64> {
    assert!(k >= 3 && n >= 3, "need k ≥ 3 colors on a cycle of n ≥ 3");
    let mut v: Vec<u64> = (0..n as u64).map(|i| i % k).collect();
    // The wrap edge (n−1, 0) conflicts iff (n−1) % k == 0; patch the last
    // entry with a value differing from both neighbors.
    if v[n - 1] == v[0] {
        let avoid = (v[n - 2], v[0]);
        v[n - 1] = (0..k)
            .find(|c| *c != avoid.0 && *c != avoid.1)
            .expect("k ≥ 3 always leaves a free color");
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validates that `ids` are pairwise distinct — the paper's baseline
    /// input assumption. Returns the first duplicated value if any.
    fn find_duplicate(ids: &[u64]) -> Option<u64> {
        let mut seen = std::collections::HashSet::with_capacity(ids.len());
        ids.iter().copied().find(|x| !seen.insert(*x))
    }

    /// The length of the longest monotone run around the cycle under `ids`
    /// (number of *edges* in the longest subpath with strictly increasing
    /// values in one direction). Lemma 3.9 ties the linear algorithms'
    /// running time to this quantity.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() < 3` (not a cycle).
    fn longest_monotone_chain(ids: &[u64]) -> usize {
        let n = ids.len();
        assert!(n >= 3, "cycle needs n ≥ 3");
        // If the whole cycle were monotone the values couldn't be proper; a
        // run is maximal between a local min and a local max. Walk twice
        // around to handle wrap.
        let mut best = 0usize;
        let mut run = 0usize;
        for i in 1..2 * n {
            if ids[i % n] > ids[(i - 1) % n] {
                run += 1;
                best = best.max(run.min(n - 1));
            } else {
                run = 0;
            }
        }
        // Also count decreasing runs (a chain is monotone in either direction
        // when walked one way, so increasing runs in the reverse direction are
        // decreasing runs here — by symmetry of the walk above applied to the
        // reversed sequence).
        let mut run = 0usize;
        for i in 1..2 * n {
            if ids[i % n] < ids[(i - 1) % n] {
                run += 1;
                best = best.max(run.min(n - 1));
            } else {
                run = 0;
            }
        }
        best
    }

    #[test]
    fn staircase_shapes() {
        assert_eq!(staircase(4), vec![0, 1, 2, 3]);
        assert_eq!(longest_monotone_chain(&staircase(10)), 9);
        let p = staircase_poly(5);
        assert!(find_duplicate(&p).is_none());
        assert_eq!(longest_monotone_chain(&p), 4);
        assert!(p.iter().all(|&x| x <= 125));
    }

    #[test]
    fn alternating_has_short_chains() {
        let v = alternating(8);
        assert_eq!(v, vec![0, 8, 1, 9, 2, 10, 3, 11]);
        assert_eq!(longest_monotone_chain(&v), 1);
        assert!(find_duplicate(&v).is_none());
    }

    #[test]
    fn organ_pipe_has_two_half_chains() {
        let v = organ_pipe(10);
        assert_eq!(v, vec![0, 2, 4, 6, 8, 9, 7, 5, 3, 1]);
        assert!(find_duplicate(&v).is_none());
        assert_eq!(longest_monotone_chain(&v), 5);
    }

    #[test]
    fn random_unique_is_unique_and_seeded() {
        for (n, max) in [(10, 10), (10, 1_000_000), (100, 150)] {
            let v = random_unique(n, max, 3);
            assert_eq!(v.len(), n);
            assert!(find_duplicate(&v).is_none(), "n={n} max={max}");
            assert!(v.iter().all(|&x| x < max));
            assert_eq!(v, random_unique(n, max, 3));
        }
        assert_ne!(random_unique(50, 10_000, 1), random_unique(50, 10_000, 2));
    }

    #[test]
    #[should_panic(expected = "at least n identifiers")]
    fn random_unique_rejects_small_range() {
        random_unique(10, 5, 0);
    }

    #[test]
    fn proper_k_coloring_is_proper_on_cycle() {
        for n in 3..40 {
            for k in 3..6 {
                let v = proper_k_coloring(n, k);
                for i in 0..n {
                    assert_ne!(v[i], v[(i + 1) % n], "n={n} k={k} i={i}");
                }
                assert!(v.iter().all(|&c| c < k));
            }
        }
    }

    #[test]
    fn monotone_chain_of_random_permutation_is_sublinear_typically() {
        let v = random_permutation(1000, 7);
        let chain = longest_monotone_chain(&v);
        // With overwhelming probability far below n−1; this documents the
        // contrast with the staircase.
        assert!(chain < 100, "chain = {chain}");
    }

    #[test]
    fn sawtooth_controls_chain_length() {
        for k in [1usize, 2, 4, 8] {
            let v = sawtooth(64, k);
            assert!(find_duplicate(&v).is_none(), "k={k}: {v:?}");
            let chain = longest_monotone_chain(&v);
            assert!(chain >= k && chain <= 2 * k + 2, "k={k}: chain {chain}");
        }
    }

    #[test]
    fn duplicate_detection() {
        assert_eq!(find_duplicate(&[1, 2, 3]), None);
        assert_eq!(find_duplicate(&[1, 2, 1]), Some(1));
    }

    #[test]
    fn chain_wraps_around_the_seam() {
        // 3,4,0,1,2 is the staircase rotated: the chain 0,1,2,3,4 crosses
        // the array seam and must still be found.
        assert_eq!(longest_monotone_chain(&[3, 4, 0, 1, 2]), 4);
    }
}
