//! The identifier-reduction function `f` of §4.1 (Eq. (6)), adapted from
//! Cole and Vishkin's deterministic coin tossing.
//!
//! For naturals `X = Σ X_k 2^k` and `Y`, with `|Z| = ⌈log₂(Z+1)⌉`:
//!
//! ```text
//! f(X, Y) = 2i + X_i   where   i = min( {|X|, |Y|} ∪ { k : X_k ≠ Y_k } )
//! ```
//!
//! The two load-bearing properties, each verified exhaustively and by
//! property tests:
//!
//! * **Lemma 4.2** — if `x > y ≥ 10` then `f(x, y) < y`: one reduction
//!   strictly descends below the smaller argument once identifiers are
//!   double digits, which drives the `O(log* n)` convergence;
//! * **Lemma 4.3** — if `x > y > z` then `f(x, y) ≠ f(y, z)`: reductions
//!   applied along a monotone chain never create an adjacent collision,
//!   which preserves the proper coloring of the evolving identifiers
//!   (Lemma 4.5).

use ftcolor_model::logstar::bit_length;

/// `f(x, y) = 2i + x_i` with `i` the smallest index where `x` and `y`
/// differ, capped by `min(|x|, |y|)` (Eq. (6)).
///
/// Intuition: `x` encodes, in `O(log x)` bits, "the first bit where I
/// differ from my smaller neighbor, and my value of that bit" — enough
/// to remain distinct from that neighbor's own reduction (Lemma 4.3).
///
/// The result is at most `2·min(|x|, |y|) + 1 = O(log min(x, y))`.
///
/// ```
/// use ftcolor_core::cole_vishkin::reduce;
/// // x = 6 = 0b110, y = 2 = 0b010: bits differ first at k = 2 and
/// // min(|x|,|y|) = 2, so i = 2 and f = 2·2 + 1 = 5.
/// assert_eq!(reduce(6, 2), 5);
/// // Identical values only stop at i = |x| = |y|.
/// assert_eq!(reduce(5, 5), 2 * 3 + 0);
/// ```
pub fn reduce(x: u64, y: u64) -> u64 {
    let cap = u64::from(bit_length(x).min(bit_length(y)));
    let diff = x ^ y;
    let first_diff = if diff == 0 {
        u64::MAX
    } else {
        u64::from(diff.trailing_zeros())
    };
    let i = cap.min(first_diff);
    let x_i = if i < 64 { (x >> i) & 1 } else { 0 };
    2 * i + x_i
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Upper bound `2·min(|x|, |y|) + 1` on [`reduce`] — the contraction that
    /// Lemma 4.1 iterates.
    fn reduce_bound(x: u64, y: u64) -> u64 {
        2 * u64::from(bit_length(x).min(bit_length(y))) + 1
    }

    /// Applies [`reduce`] down a strictly decreasing chain
    /// `c_0 > c_1 > … > c_k`, returning the reduced values
    /// `f(c_0, c_1), f(c_1, c_2), …` — the synchronous shape of what
    /// Algorithm 3 does asynchronously.
    ///
    /// # Panics
    ///
    /// Panics if the chain is not strictly decreasing.
    fn reduce_chain(chain: &[u64]) -> Vec<u64> {
        for w in chain.windows(2) {
            assert!(w[0] > w[1], "chain must strictly decrease");
        }
        chain.windows(2).map(|w| reduce(w[0], w[1])).collect()
    }

    /// Bit `k` of `z`.
    fn bit(z: u64, k: u64) -> u64 {
        if k >= 64 {
            0
        } else {
            (z >> k) & 1
        }
    }

    /// Direct transcription of Eq. (6), as an oracle for `reduce`.
    fn reduce_oracle(x: u64, y: u64) -> u64 {
        let mut i = u64::from(bit_length(x).min(bit_length(y)));
        for k in 0..64 {
            if bit(x, k) != bit(y, k) {
                i = i.min(k);
                break;
            }
        }
        2 * i + bit(x, i)
    }

    #[test]
    fn matches_oracle_exhaustively_small() {
        for x in 0..256u64 {
            for y in 0..256u64 {
                assert_eq!(reduce(x, y), reduce_oracle(x, y), "x={x} y={y}");
            }
        }
    }

    #[test]
    fn handcomputed_values() {
        // x=0b110=6, y=0b010=2: differ at bit 2; |y|=2 caps i at 2 too.
        assert_eq!(reduce(6, 2), 5);
        // x=0b101=5, y=0b011=3: differ at bit 1, x_1=0 → f=2.
        assert_eq!(reduce(5, 3), 2);
        // x=0b1000=8, y=0b0111=7: differ at bit 0, x_0=0 → f=0.
        assert_eq!(reduce(8, 7), 0);
        // x=13=0b1101, y=5=0b0101: differ at bit 3; |y|=3 caps i=3, x_3=1 → 7.
        assert_eq!(reduce(13, 5), 7);
        // Equal arguments: i=|x|, bit above the top is 0.
        assert_eq!(reduce(0, 0), 0);
        assert_eq!(reduce(7, 7), 6);
    }

    #[test]
    fn lemma_4_2_exhaustive() {
        // x > y ≥ 10 ⟹ f(x,y) < y, exhaustively for y up to 2^12.
        for y in 10u64..4096 {
            for x in y + 1..y + 200 {
                let f = reduce(x, y);
                assert!(f < y, "f({x},{y}) = {f} ≥ {y}");
            }
            // And for some much larger x.
            for x in [y * 17 + 3, 1 << 40, u64::MAX] {
                assert!(reduce(x, y) < y);
            }
        }
    }

    #[test]
    fn lemma_4_2_boundary_is_tight() {
        // The constant 10 is tight-ish: below 10 the lemma can fail.
        // y = 9 = 0b1001, x = 13 = 0b1101: differ at bit 2, x_2 = 1 → f = 5 < 9,
        // but y = 2, x = 6 gives f = 5 ≥ 2: find a genuine failure below 10.
        let mut failure_below_10 = false;
        for y in 1u64..10 {
            for x in y + 1..100 {
                if reduce(x, y) >= y {
                    failure_below_10 = true;
                }
            }
        }
        assert!(failure_below_10, "Lemma 4.2's threshold matters");
    }

    #[test]
    fn lemma_4_3_exhaustive_small() {
        // x > y > z ⟹ f(x,y) ≠ f(y,z), exhaustively to 128.
        for x in 0..128u64 {
            for y in 0..x {
                for z in 0..y {
                    assert_ne!(reduce(x, y), reduce(y, z), "x={x} y={y} z={z}");
                }
            }
        }
    }

    #[test]
    fn reduce_respects_bound() {
        for x in 0..512u64 {
            for y in 0..512u64 {
                assert!(reduce(x, y) <= reduce_bound(x, y));
            }
        }
    }

    #[test]
    fn reduce_chain_stays_proper() {
        let chain: Vec<u64> = (0..20u64).map(|i| 1_000_000 - i * 31).collect();
        let reduced = reduce_chain(&chain);
        for w in reduced.windows(2) {
            assert_ne!(w[0], w[1], "adjacent reductions collide");
        }
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn reduce_chain_rejects_nonmonotone() {
        reduce_chain(&[3, 5, 1]);
    }

    proptest! {
        #[test]
        fn prop_lemma_4_2(y in 10u64..u64::MAX / 2, dx in 1u64..u64::MAX / 2) {
            let x = y.saturating_add(dx);
            prop_assert!(reduce(x, y) < y);
        }

        #[test]
        fn prop_lemma_4_3(a in 0u64..u64::MAX, b in 0u64..u64::MAX, c in 0u64..u64::MAX) {
            let mut v = [a, b, c];
            v.sort_unstable();
            let (z, y, x) = (v[0], v[1], v[2]);
            prop_assume!(x > y && y > z);
            prop_assert_ne!(reduce(x, y), reduce(y, z));
        }

        #[test]
        fn prop_bound(x in 0u64..u64::MAX, y in 0u64..u64::MAX) {
            prop_assert!(reduce(x, y) <= reduce_bound(x, y));
        }

        #[test]
        fn prop_matches_oracle(x in 0u64..u64::MAX, y in 0u64..u64::MAX) {
            prop_assert_eq!(reduce(x, y), reduce_oracle(x, y));
        }
    }
}
