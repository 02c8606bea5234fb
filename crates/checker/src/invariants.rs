//! Invariant checking for coloring executions.
//!
//! The theorems of the paper each assert three things about every
//! execution: **termination** within a bound, a **palette** restriction,
//! and **correctness** (the outputs properly color the subgraph induced
//! by the terminating processes). [`check_coloring_report`] verifies all
//! three on an [`ExecutionReport`] and returns a structured result that
//! the test suite and the experiment harness share.

use ftcolor_model::{ExecutionReport, Topology};
use std::fmt;

/// The verdict of [`check_coloring_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringCheck {
    /// Whether the partial coloring of returned processes is proper.
    pub proper: bool,
    /// The first conflicting edge, if any.
    pub conflict: Option<(usize, usize)>,
    /// Colors that exceeded the allowed palette, with their process.
    pub palette_violations: Vec<(usize, u64)>,
    /// Max activations over all processes (the round complexity).
    pub max_activations: u64,
    /// Whether the round complexity respected the supplied bound.
    pub within_bound: bool,
    /// Number of processes that returned.
    pub returned: usize,
    /// Number of processes that crashed.
    pub crashed: usize,
}

impl ColoringCheck {
    /// `true` when properness, palette, and the activation bound all hold.
    pub fn ok(&self) -> bool {
        self.proper && self.palette_violations.is_empty() && self.within_bound
    }
}

impl fmt::Display for ColoringCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proper={} palette_violations={} max_activations={} within_bound={} returned={} crashed={}",
            self.proper,
            self.palette_violations.len(),
            self.max_activations,
            self.within_bound,
            self.returned,
            self.crashed
        )
    }
}

/// Checks a finished coloring execution against the paper's three-part
/// claim: proper partial coloring, colors `< palette_size`, and round
/// complexity `≤ activation_bound`.
///
/// The color type is anything convertible to a `u64` palette index via
/// `color_index` (identity for Algorithms 2/3; [`PairColor::flat_index`]
/// for Algorithms 1/4).
///
/// [`PairColor::flat_index`]: ftcolor_core::PairColor::flat_index
///
/// # Panics
///
/// Panics if the report and topology disagree on the number of processes.
pub fn check_coloring_report<O: Clone + PartialEq>(
    topo: &Topology,
    report: &ExecutionReport<O>,
    color_index: impl Fn(&O) -> u64,
    palette_size: u64,
    activation_bound: u64,
) -> ColoringCheck {
    assert_eq!(report.outputs.len(), topo.len(), "report/topology mismatch");
    let conflict = topo
        .first_conflict(&report.outputs)
        .map(|(a, b)| (a.index(), b.index()));
    let palette_violations: Vec<(usize, u64)> = report
        .outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.as_ref()
                .map(|o| (i, color_index(o)))
                .filter(|(_, c)| *c >= palette_size)
        })
        .collect();
    let max_activations = report.max_activations();
    ColoringCheck {
        proper: conflict.is_none(),
        conflict,
        palette_violations,
        max_activations,
        within_bound: max_activations <= activation_bound,
        returned: report.returned_count(),
        crashed: report.crashed.len(),
    }
}

/// The Theorem 3.1 activation bound for Algorithm 1: `⌊3n/2⌋ + 4`.
pub fn theorem_3_1_bound(n: usize) -> u64 {
    (3 * n as u64) / 2 + 4
}

/// The Theorem 3.11 activation bound for Algorithm 2: `3n + 8`
/// (non-minima need ≤ `⌊3n/2⌋ + 4`; minima may lag behind both
/// neighbors, giving the paper's `3n + 8`).
pub fn theorem_3_11_bound(n: usize) -> u64 {
    3 * n as u64 + 8
}

/// A generous-but-falsifiable `O(log* n)` regression bound for
/// Theorem 4.4 (Algorithm 3). Measured maxima (EXPERIMENTS.md, E5) sit
/// well below; the point of the constant is to fail loudly on any
/// regression to `ω(log* n)` behavior.
pub fn theorem_4_4_bound(n: usize) -> u64 {
    30 + 15 * u64::from(ftcolor_model::logstar::log_star_u64(n as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{FiveColoring, PairColor, SixColoring};
    use ftcolor_model::inputs;
    use ftcolor_model::prelude::*;

    #[test]
    fn accepts_a_good_execution() {
        let n = 8;
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FiveColoring, &topo, inputs::staircase(n));
        let report = exec.run(Synchronous::new(), 10_000).unwrap();
        let check = check_coloring_report(&topo, &report, |c| *c, 5, theorem_3_11_bound(n));
        assert!(check.ok(), "{check}");
        assert_eq!(check.returned, n);
        assert_eq!(check.crashed, 0);
    }

    #[test]
    fn flags_palette_violations() {
        let topo = Topology::cycle(3).unwrap();
        let report = ExecutionReport::<u64> {
            outputs: vec![Some(0), Some(7), Some(1)],
            activations: vec![1, 1, 1],
            time_steps: 1,
            crashed: vec![],
        };
        let check = check_coloring_report(&topo, &report, |c| *c, 5, 100);
        assert!(!check.ok());
        assert_eq!(check.palette_violations, vec![(1, 7)]);
        assert!(check.proper);
    }

    #[test]
    fn flags_conflicts() {
        let topo = Topology::cycle(4).unwrap();
        let report = ExecutionReport::<u64> {
            outputs: vec![Some(1), Some(1), None, None],
            activations: vec![1, 1, 0, 0],
            time_steps: 1,
            crashed: vec![ProcessId(2), ProcessId(3)],
        };
        let check = check_coloring_report(&topo, &report, |c| *c, 5, 100);
        assert!(!check.proper);
        assert_eq!(check.conflict, Some((0, 1)));
        assert_eq!(check.crashed, 2);
    }

    #[test]
    fn flags_bound_violations() {
        let n = 6;
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&SixColoring, &topo, inputs::staircase(n));
        let report = exec.run(Synchronous::new(), 10_000).unwrap();
        let tight = check_coloring_report(
            &topo,
            &report,
            PairColor::flat_index,
            6,
            1, // absurd bound
        );
        assert!(!tight.within_bound);
        assert!(tight.proper);
    }

    #[test]
    fn bounds_shapes() {
        assert_eq!(theorem_3_1_bound(10), 19);
        assert_eq!(theorem_3_11_bound(10), 38);
        // log*-flavored: doubling n barely moves the Theorem 4.4 bound.
        assert!(theorem_4_4_bound(1 << 20) <= theorem_4_4_bound(1 << 10) + 15);
    }
}
