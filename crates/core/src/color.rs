//! Color types and the `min N ∖ S` ("mex") primitive.
//!
//! Algorithms 1 and 4 output *pair colors* `(a, b)`; Algorithms 2 and 3
//! output plain naturals in `{0, …, 4}`. All of them compute colors as
//! the minimum natural number excluded from a small conflict set — the
//! paper's recurring `min N ∖ {…}` expression, provided here as [`mex`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A pair color `(a, b)` as output by Algorithms 1 and 4.
///
/// Algorithm 1 guarantees `a + b ≤ 2` (six possible values); Algorithm 4
/// on a graph of maximum degree `Δ` guarantees `a + b ≤ Δ`, i.e. a
/// palette of `(Δ+1)(Δ+2)/2 = O(Δ²)` colors (Appendix A).
///
/// ```
/// use ftcolor_core::PairColor;
/// let c = PairColor::new(1, 1);
/// assert_eq!(c.weight(), 2);
/// assert_eq!(c.flat_index(), 4);
/// assert_eq!(c.to_string(), "(1,1)");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PairColor {
    /// First component — chosen against higher-identifier neighbors.
    pub a: u64,
    /// Second component — chosen against lower-identifier neighbors.
    pub b: u64,
}

impl PairColor {
    /// Builds the pair color `(a, b)`.
    pub fn new(a: u64, b: u64) -> Self {
        PairColor { a, b }
    }

    /// `a + b`, the quantity the palette bounds constrain.
    pub fn weight(&self) -> u64 {
        self.a + self.b
    }

    /// A dense index for the triangular palette `{(a,b) : a+b ≤ Δ}`:
    /// colors of weight `w` occupy indices `w(w+1)/2 … w(w+1)/2 + w`.
    /// For Algorithm 1 (`Δ = 2`) this maps onto `{0, …, 5}`.
    pub fn flat_index(&self) -> u64 {
        let w = self.weight();
        w * (w + 1) / 2 + self.b
    }

    /// Size of the triangular palette `{(a,b) : a+b ≤ delta}`.
    pub fn palette_size(delta: u64) -> u64 {
        (delta + 1) * (delta + 2) / 2
    }
}

impl fmt::Display for PairColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.a, self.b)
    }
}

/// `min N ∖ S`: the least natural number not in `values` — the paper's
/// color-picking rule. `values` need not be sorted or deduplicated.
///
/// One pass folds every value below 128 into a `u128` bitmask, and the
/// answer is the mask's count of trailing ones whenever some value in
/// `0..128` is missing. That covers every color the algorithms pick
/// (call sites have at most `2Δ` values) and every
/// [`reduce`](crate::cole_vishkin::reduce) output (at most
/// `2·63 + 1 = 127`), so those calls never allocate. Values of 128 and
/// more are kept aside — allocating only when one occurs — and are
/// sorted only when all of `0..128` are present.
///
/// ```
/// use ftcolor_core::mex;
/// assert_eq!(mex([]), 0);
/// assert_eq!(mex([0, 1, 3]), 2);
/// assert_eq!(mex([1, 2]), 0);
/// assert_eq!(mex([2, 0, 1, 0]), 3);
/// assert_eq!(mex((0..200).filter(|&x| x != 150)), 150);
/// ```
pub fn mex(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut low = 0u128;
    let mut high = Vec::new();
    for x in values {
        if x < 128 {
            low |= 1u128 << x;
        } else {
            high.push(x);
        }
    }
    if low != u128::MAX {
        return u64::from(low.trailing_ones());
    }
    high.sort_unstable();
    let mut candidate = 128u64;
    for x in high {
        if x == candidate {
            candidate += 1;
        } else if x > candidate {
            break;
        }
    }
    candidate
}

/// The two least naturals not in `values`, in increasing order — used by
/// the renaming baseline and by tests that need a "second choice".
///
/// ```
/// use ftcolor_core::mex2;
/// assert_eq!(mex2([0, 2]), (1, 3));
/// ```
pub fn mex2(values: impl IntoIterator<Item = u64>) -> (u64, u64) {
    let mut v: Vec<u64> = values.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    let mut found = [None::<u64>; 2];
    let mut idx = 0;
    let mut candidate = 0u64;
    for x in v {
        while candidate < x {
            found[idx] = Some(candidate);
            idx += 1;
            if idx == 2 {
                return (found[0].unwrap(), found[1].unwrap());
            }
            candidate += 1;
        }
        candidate = x + 1;
    }
    while idx < 2 {
        found[idx] = Some(candidate);
        idx += 1;
        candidate += 1;
    }
    (found[0].unwrap(), found[1].unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mex_basics() {
        assert_eq!(mex([]), 0);
        assert_eq!(mex([1]), 0);
        assert_eq!(mex([0]), 1);
        assert_eq!(mex([0, 1, 2, 3]), 4);
        assert_eq!(mex([5, 0, 2, 1]), 3);
        assert_eq!(mex([0, 0, 1, 1]), 2);
        assert_eq!(mex([u64::MAX]), 0);
        // Around the 128-value bitmask.
        assert_eq!(mex(0..127), 127);
        assert_eq!(mex(0..128), 128);
        assert_eq!(mex((0..128).chain([129, u64::MAX])), 128);
        assert_eq!(mex((0..=130).rev()), 131);
        assert_eq!(mex([128, 129]), 0);
    }

    /// The sort-based `mex` the bitmask version replaced.
    fn reference_mex(values: &[u64]) -> u64 {
        let mut v = values.to_vec();
        v.sort_unstable();
        v.dedup();
        let mut candidate = 0u64;
        for x in v {
            if x == candidate {
                candidate += 1;
            } else if x > candidate {
                break;
            }
        }
        candidate
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// Values straddle the 128 boundary; `full` prepends the whole run
        /// `0..=127` (so the fallback runs), possibly with one value
        /// knocked out; `u64::MAX` and duplicates are drawn too.
        #[test]
        fn mex_matches_reference(
            seed in 0u64..u64::MAX,
            len in 0usize..24,
            full in 0u8..3,
            knock_out in 0u64..=127,
        ) {
            let mut rng = seed;
            let mut next = move || {
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (rng ^ (rng >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 29)
            };
            let mut values: Vec<u64> = match full {
                0 => Vec::new(),
                1 => (0..=127).collect(),
                _ => (0..=127).filter(|&x| x != knock_out).collect(),
            };
            for _ in 0..len {
                values.push(match next() % 5 {
                    0 => u64::MAX,
                    1 => 120 + next() % 16,
                    2 => 128 + next() % 4,
                    3 => next() % 8,
                    _ => next() % 140,
                });
            }
            let rot = (next() as usize) % values.len().max(1);
            values.rotate_left(rot);
            prop_assert_eq!(mex(values.iter().copied()), reference_mex(&values), "{values:?}");
        }
    }

    #[test]
    fn mex_is_bounded_by_set_size() {
        // mex of k values is at most k — the source of every palette bound.
        let sets: [&[u64]; 4] = [&[0], &[0, 1], &[0, 1, 2], &[9, 9, 9]];
        for s in sets {
            assert!(mex(s.iter().copied()) <= s.len() as u64);
        }
    }

    #[test]
    fn mex2_cases() {
        assert_eq!(mex2([]), (0, 1));
        assert_eq!(mex2([0]), (1, 2));
        assert_eq!(mex2([1]), (0, 2));
        assert_eq!(mex2([0, 1, 2]), (3, 4));
        assert_eq!(mex2([0, 2, 4]), (1, 3));
        assert_eq!(mex2([3]), (0, 1));
    }

    #[test]
    fn flat_index_is_a_bijection_on_small_palettes() {
        for delta in 0..6u64 {
            let mut seen = std::collections::HashSet::new();
            let size = PairColor::palette_size(delta);
            for a in 0..=delta {
                for b in 0..=(delta - a) {
                    let idx = PairColor::new(a, b).flat_index();
                    assert!(idx < size, "({a},{b}) -> {idx} ≥ {size}");
                    assert!(seen.insert(idx), "collision at ({a},{b})");
                }
            }
            assert_eq!(seen.len() as u64, size);
        }
    }

    #[test]
    fn palette_sizes() {
        assert_eq!(PairColor::palette_size(2), 6); // Algorithm 1
        assert_eq!(PairColor::palette_size(4), 15); // torus under Algorithm 4
    }

    #[test]
    fn display_and_weight() {
        let c = PairColor::new(2, 0);
        assert_eq!(c.weight(), 2);
        assert_eq!(format!("{c}"), "(2,0)");
    }
}
