//! **E1 — Theorem 3.1.** Algorithm 1 terminates within `⌊3n/2⌋ + 4`
//! activations, uses the 6-color palette `{(a,b) : a+b ≤ 2}`, and
//! properly colors the terminated subgraph — across input shapes and
//! schedule families.

use crate::common::{coloring_ok, run_cycle, SchedKind};
use ftcolor_checker::invariants::theorem_3_1_bound;
use ftcolor_core::SixColoring;
use ftcolor_model::inputs;
use serde::Serialize;

/// One measurement: a (n, input shape, schedule) cell.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Input shape label.
    pub input: &'static str,
    /// Schedule label.
    pub schedule: &'static str,
    /// Measured worst-case activations over the seeds tried.
    pub max_activations: u64,
    /// The Theorem 3.1 bound `⌊3n/2⌋ + 4`.
    pub bound: u64,
    /// Whether every execution was proper, in-palette, and within bound.
    pub ok: bool,
}

/// A named identifier-assignment generator.
pub type InputShape = (&'static str, fn(usize) -> Vec<u64>);

/// Input generators exercised by E1.
fn input_shapes() -> Vec<InputShape> {
    vec![
        ("staircase", inputs::staircase as fn(usize) -> Vec<u64>),
        ("alternating", inputs::alternating),
        ("organ-pipe", inputs::organ_pipe),
        ("random", |n| inputs::random_permutation(n, 0xE1)),
    ]
}

/// Runs the sweep. `sizes` defaults (in the harness) to
/// `[3, 4, 5, 8, 16, 32, 100, 316, 1000]`.
pub fn run(sizes: &[usize], seeds: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (input_label, gen) in input_shapes() {
            let ids = gen(n);
            for kind in [SchedKind::Sync, SchedKind::RoundRobin, SchedKind::Random] {
                let mut worst = 0u64;
                let mut ok = true;
                for seed in 0..seeds {
                    let fuel = 400 * n as u64 + 4000;
                    let (topo, report) =
                        run_cycle(&SixColoring, &ids, kind, seed, fuel).expect("wait-free");
                    worst = worst.max(report.max_activations());
                    ok &= report.all_returned()
                        && coloring_ok(&topo, &report, ftcolor_core::PairColor::flat_index, 6)
                        && report.max_activations() <= theorem_3_1_bound(n);
                }
                rows.push(Row {
                    n,
                    input: input_label,
                    schedule: kind.label(),
                    max_activations: worst,
                    bound: theorem_3_1_bound(n),
                    ok,
                });
            }
        }
    }
    rows
}

/// Renders the E1 table.
pub fn table(rows: &[Row]) -> String {
    crate::common::render_table(
        "E1 (Theorem 3.1) — Algorithm 1: ≤ ⌊3n/2⌋+4 activations, 6 colors, proper",
        &["n", "input", "schedule", "max acts", "bound", "ok"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.input.to_string(),
                    r.schedule.to_string(),
                    r.max_activations.to_string(),
                    r.bound.to_string(),
                    r.ok.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_all_ok() {
        let rows = run(&[3, 5, 9], 2);
        assert_eq!(rows.len(), 3 * 4 * 3);
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
        // The alternating input is O(1) regardless of n.
        let alt9 = rows
            .iter()
            .find(|r| r.n == 9 && r.input == "alternating" && r.schedule == "sync")
            .unwrap();
        assert!(alt9.max_activations <= 8);
    }

    #[test]
    fn staircase_grows_linearly() {
        let rows = run(&[8, 64], 1);
        let get = |n: usize| {
            rows.iter()
                .find(|r| r.n == n && r.input == "staircase" && r.schedule == "sync")
                .unwrap()
                .max_activations
        };
        assert!(get(64) > 3 * get(8), "staircase should scale with n");
    }
}
