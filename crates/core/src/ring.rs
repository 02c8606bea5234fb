//! The ring-coloring registry: the one place a front-end name (`--alg
//! alg2p`) becomes an algorithm type.
//!
//! The paper's three ring colorings and the repo's two repairs are the
//! unit every front end runs — the CLI, the network matrix, the cluster
//! substrate, the contract linter and the certifier. [`RingColoring`]
//! states the facts they need about such an algorithm: its palette, how
//! an output becomes a flat color, which input family the ring uses,
//! how a register renders in a timeline, and its certified view domain.
//! [`with_ring_coloring!`](crate::with_ring_coloring) maps a name to its
//! concrete type, and [`ring_safety`] is the safety predicate the
//! exhaustive checker, fuzzer and shrinker share.

use ftcolor_model::domain::ViewDomain;
use ftcolor_model::{inputs, Algorithm, ProcessId, Topology};

use crate::{domains, PairColor, SixColoring};
use crate::{FastFiveColoring, FastFiveColoringPatched, FiveColoring, FiveColoringPatched};

/// Every name [`with_ring_coloring!`](crate::with_ring_coloring) knows, in registry order.
pub const RING_COLORINGS: [&str; 5] = ["alg1", "alg2", "alg2p", "alg3", "alg3p"];

/// A coloring of the cycle that front ends run by name.
pub trait RingColoring: Algorithm<Input = u64> {
    /// The registry name (`alg1`, `alg2p`, …).
    fn name(&self) -> &'static str;

    /// Number of flat colors the algorithm may output: the paper's 5
    /// unless the algorithm claims more.
    fn palette(&self) -> u64 {
        5
    }

    /// The output as a flat color index in `0..palette()`.
    fn color(&self, out: &Self::Output) -> u64;

    /// The identifiers of the `n`-ring every substrate runs this
    /// algorithm on: distinct random identifiers below 10 000.
    fn ring_inputs(&self, n: usize, seed: u64) -> Vec<u64> {
        inputs::random_unique(n, 10_000, seed)
    }

    /// One register rendered as a `color --timeline` cell.
    fn cell(&self, reg: &Self::Reg) -> String;

    /// The abstract view domain `ftcolor certify` explores, its
    /// candidate colors bounded by [`RingColoring::palette`] (see
    /// [`domains`]).
    fn domain(&self) -> ViewDomain<Self>
    where
        Self: Sized;
}

impl RingColoring for SixColoring {
    fn name(&self) -> &'static str {
        "alg1"
    }
    fn palette(&self) -> u64 {
        PairColor::palette_size(2)
    }
    fn color(&self, out: &PairColor) -> u64 {
        out.flat_index()
    }
    fn cell(&self, r: &Self::Reg) -> String {
        r.color.to_string()
    }
    fn domain(&self) -> ViewDomain<Self> {
        domains::pair_domain()
    }
}

impl RingColoring for FiveColoring {
    fn name(&self) -> &'static str {
        "alg2"
    }
    fn color(&self, &out: &u64) -> u64 {
        out
    }
    fn cell(&self, r: &Self::Reg) -> String {
        format!("({},{})", r.a, r.b)
    }
    fn domain(&self) -> ViewDomain<Self> {
        domains::five_coloring_domain(self.palette())
    }
}

impl RingColoring for FiveColoringPatched {
    fn name(&self) -> &'static str {
        "alg2p"
    }
    fn color(&self, &out: &u64) -> u64 {
        out
    }
    fn cell(&self, r: &Self::Reg) -> String {
        format!("({},{})c{}", r.a, r.b, r.c)
    }
    fn domain(&self) -> ViewDomain<Self> {
        domains::five_coloring_patched_domain(self.palette())
    }
}

/// Algorithm 3's `O(log* n)` claim is about identifiers of `poly(n)`
/// magnitude, so its rings use the staircase-polynomial family.
impl RingColoring for FastFiveColoring {
    fn name(&self) -> &'static str {
        "alg3"
    }
    fn color(&self, &out: &u64) -> u64 {
        out
    }
    fn ring_inputs(&self, n: usize, _seed: u64) -> Vec<u64> {
        inputs::staircase_poly(n)
    }
    fn cell(&self, r: &Self::Reg) -> String {
        format!("x{}({},{})", r.x, r.a, r.b)
    }
    fn domain(&self) -> ViewDomain<Self> {
        domains::fast_five_domain(self.palette(), 2)
    }
}

impl RingColoring for FastFiveColoringPatched {
    fn name(&self) -> &'static str {
        "alg3p"
    }
    fn color(&self, &out: &u64) -> u64 {
        out
    }
    fn ring_inputs(&self, n: usize, _seed: u64) -> Vec<u64> {
        inputs::staircase_poly(n)
    }
    fn cell(&self, r: &Self::Reg) -> String {
        format!("x{}({},{})c{}", r.x, r.a, r.b, r.c)
    }
    fn domain(&self) -> ViewDomain<Self> {
        domains::fast_five_patched_domain(self.palette(), 2)
    }
}

/// Evaluates `$body` with `$alg` bound to the `&'static` algorithm named
/// `$name` (one of [`RING_COLORINGS`]), or `$fallback` for any other
/// name. Each arm is compiled for its concrete type, so the body needs
/// no trait bounds beyond what that type already has.
///
/// ```
/// use ftcolor_core::ring::RingColoring;
/// let palette = ftcolor_core::with_ring_coloring!("alg1", alg => alg.palette(), else 0);
/// assert_eq!(palette, 6);
/// ```
#[macro_export]
macro_rules! with_ring_coloring {
    ($name:expr, $alg:ident => $body:expr, else $fallback:expr) => {
        match $name {
            "alg1" => {
                let $alg = &$crate::SixColoring;
                $body
            }
            "alg2" => {
                let $alg = &$crate::FiveColoring;
                $body
            }
            "alg2p" => {
                let $alg = &$crate::FiveColoringPatched;
                $body
            }
            "alg3" => {
                let $alg = &$crate::FastFiveColoring;
                $body
            }
            "alg3p" => {
                let $alg = &$crate::FastFiveColoringPatched;
                $body
            }
            _ => $fallback,
        }
    };
}

/// The error for a name outside [`RING_COLORINGS`].
pub fn unknown_ring_coloring(name: &str) -> String {
    format!(
        "unknown --alg `{name}` (expected one of {})",
        RING_COLORINGS.join(", ")
    )
}

/// The ring-coloring safety predicate for `alg`, in the shape the
/// checker, fuzzer and shrinker take: the first edge whose endpoints
/// decided the same flat color, else the first flat color outside the
/// palette.
pub fn ring_safety<A: RingColoring + Sync>(
    alg: &A,
) -> impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync + '_ {
    move |topo, outs| {
        let flat = |p: ProcessId| outs[p.index()].as_ref().map(|o| alg.color(o));
        if let Some((a, b)) = topo
            .edges()
            .find(|&(a, b)| matches!((flat(a), flat(b)), (Some(x), Some(y)) if x == y))
        {
            return Some(format!("conflict on edge {a}-{b}"));
        }
        outs.iter()
            .flatten()
            .map(|o| alg.color(o))
            .find(|&c| c >= alg.palette())
            .map(|c| format!("color {c} outside the palette"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_pins_palettes_and_input_families() {
        let seed = 11;
        let random = inputs::random_unique(9, 10_000, seed);
        let staircase = inputs::staircase_poly(9);
        let want = [
            ("alg1", 6, &random),
            ("alg2", 5, &random),
            ("alg2p", 5, &random),
            ("alg3", 5, &staircase),
            ("alg3p", 5, &staircase),
        ];
        assert_eq!(RING_COLORINGS.to_vec(), want.map(|w| w.0).to_vec());
        for (name, palette, ids) in want {
            with_ring_coloring!(name, alg => {
                assert_eq!(alg.name(), name);
                assert_eq!(alg.palette(), palette, "{name}");
                assert_eq!(&alg.ring_inputs(9, seed), ids, "{name}");
            }, else unreachable!("{name} is in the registry"));
        }
        assert!(with_ring_coloring!("nope", _alg => false, else true));
        assert_eq!(
            unknown_ring_coloring("x"),
            "unknown --alg `x` (expected one of alg1, alg2, alg2p, alg3, alg3p)"
        );
    }

    #[test]
    fn ring_safety_checks_flat_colors_and_the_palette() {
        let topo = Topology::cycle(3).unwrap();
        let alg1 = ring_safety(&SixColoring);
        // (3,0) has flat index 6: one past Algorithm 1's 6-color palette.
        let outs = [Some(PairColor::new(0, 0)), Some(PairColor::new(3, 0)), None];
        assert_eq!(
            alg1(&topo, &outs).as_deref(),
            Some("color 6 outside the palette")
        );
        let outs = [Some(PairColor::new(1, 0)), Some(PairColor::new(1, 0)), None];
        assert_eq!(
            alg1(&topo, &outs).as_deref(),
            Some("conflict on edge p0-p1")
        );
        let alg2 = ring_safety(&FiveColoring);
        assert_eq!(alg2(&topo, &[Some(4), Some(3), None]), None);
        assert_eq!(
            alg2(&topo, &[Some(5), None, None]).as_deref(),
            Some("color 5 outside the palette")
        );
    }
}
