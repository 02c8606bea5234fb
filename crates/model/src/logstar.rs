//! Iterated logarithms and the fixed-point analysis of §4.1.
//!
//! The paper's `O(log* n)` round bound rests on Lemma 4.1: iterating
//! `F(x) = 2⌈log₂(x+1)⌉ + 1` reaches a value below 10 within `O(log* x)`
//! steps. This module provides `log*`, the iterated log, and the exact
//! iteration count of `F`, which experiment E4 compares against `α·log* x`.

/// `⌈log₂(z + 1)⌉` — the length `|z|` of the binary decomposition of `z`
/// as defined in §4.1 (`|0| = 0`, `|1| = 1`, `|2| = |3| = 2`, …).
///
/// ```
/// use ftcolor_model::logstar::bit_length;
/// assert_eq!(bit_length(0), 0);
/// assert_eq!(bit_length(1), 1);
/// assert_eq!(bit_length(5), 3);
/// assert_eq!(bit_length(u64::MAX), 64);
/// ```
#[inline]
pub fn bit_length(z: u64) -> u32 {
    64 - z.leading_zeros()
}

/// `log* x`: the number of times `log₂` must be applied, starting from
/// `x`, before the value is at most 1 (paper footnote 1).
///
/// `log*` of anything representable in the observable universe is at most 5.
///
/// ```
/// use ftcolor_model::logstar::log_star;
/// assert_eq!(log_star(1.0), 0);
/// assert_eq!(log_star(2.0), 1);
/// assert_eq!(log_star(4.0), 2);
/// assert_eq!(log_star(16.0), 3);
/// assert_eq!(log_star(65536.0), 4);
/// assert_eq!(log_star(1e18), 5);
/// ```
pub fn log_star(x: f64) -> u32 {
    let mut x = x;
    let mut k = 0;
    while x > 1.0 {
        x = x.log2();
        k += 1;
    }
    k
}

/// `log*` for integer arguments.
///
/// ```
/// use ftcolor_model::logstar::log_star_u64;
/// assert_eq!(log_star_u64(3), 2);
/// assert_eq!(log_star_u64(65_536), 4);
/// assert_eq!(log_star_u64(1_000_000), 5);
/// ```
pub fn log_star_u64(x: u64) -> u32 {
    log_star(x as f64)
}

/// One application of the Lemma 4.1 contraction `F(x) = 2⌈log₂(x+1)⌉ + 1`.
///
/// `F` models the worst-case growth of an identifier after one
/// Cole–Vishkin reduction: `f(x, y) ≤ 2|x| + 1` for every `y` (§4.1).
#[inline]
fn cv_contraction(x: u64) -> u64 {
    2 * u64::from(bit_length(x)) + 1
}

/// Number of iterations of the Lemma 4.1 contraction
/// `F(x) = 2⌈log₂(x+1)⌉ + 1` needed to bring `x` strictly below 10 (the constant `L ≤ 10` of §4), i.e. the smallest `t`
/// with `F^(t)(x) < 10`.
///
/// Lemma 4.1 asserts this is at most `α·log* x` for some constant `α`;
/// experiment E4 measures the realized ratio.
///
/// ```
/// use ftcolor_model::logstar::cv_iterations_below_10;
/// assert_eq!(cv_iterations_below_10(5), 0);
/// assert_eq!(cv_iterations_below_10(9), 0);
/// assert_eq!(cv_iterations_below_10(10), 1); // F(10) = 9
/// assert_eq!(cv_iterations_below_10(1_000_000), 3);
/// ```
pub fn cv_iterations_below_10(x: u64) -> u32 {
    let mut x = x;
    let mut t = 0;
    while x >= 10 {
        x = cv_contraction(x);
        t += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_length_matches_definition() {
        // |z| = ⌈log₂(z+1)⌉ computed via floats for small z.
        for z in 0u64..10_000 {
            let expected = ((z + 1) as f64).log2().ceil() as u32;
            assert_eq!(bit_length(z), expected, "z = {z}");
        }
    }

    #[test]
    fn bit_length_powers_of_two() {
        for k in 0..63 {
            assert_eq!(bit_length(1 << k), k + 1);
            assert_eq!(bit_length((1 << k) - 1), k);
        }
    }

    #[test]
    fn log_star_breakpoints() {
        // log* x = k exactly on (2↑↑(k−1), 2↑↑k].
        assert_eq!(log_star(0.5), 0);
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(2.1), 2);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(4.1), 3);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(16.1), 4);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(65537.0), 5);
        assert_eq!(log_star(2f64.powi(1000)), 5);
    }

    #[test]
    fn contraction_is_monotone_and_shrinking() {
        assert_eq!(cv_contraction(1_000_000), 41); // |10^6| = 20
        assert_eq!(cv_contraction(41), 13);
        assert_eq!(cv_contraction(13), 9);
        for x in 10u64..100_000 {
            assert!(
                cv_contraction(x) < x,
                "F({x}) = {} not < x",
                cv_contraction(x)
            );
        }
        for x in 0u64..1000 {
            assert!(cv_contraction(x) <= cv_contraction(x + 1));
        }
    }

    #[test]
    fn iterations_grow_like_log_star() {
        // The iteration count should stay within a small constant multiple
        // of log* x across 50 orders of doubling.
        for k in 1..64 {
            let x = 1u64 << k;
            let it = cv_iterations_below_10(x);
            let ls = log_star_u64(x).max(1);
            assert!(it <= 3 * ls, "x = 2^{k}: {it} iterations vs log* = {ls}");
        }
    }

    #[test]
    fn iterations_below_ten_fixed_points() {
        // Values already below 10 need zero iterations; every x eventually
        // lands strictly below 10 and stays there (F(9) = 9 is a fixed point
        // region: F(x) for x in 0..10 stays in 0..10).
        for x in 0..10 {
            assert_eq!(cv_iterations_below_10(x), 0);
            assert!(cv_contraction(x) < 10);
        }
        assert_eq!(cv_iterations_below_10(u64::MAX), 4);
    }
}
