//! **E9 — baselines.** The two classic algorithms the paper measures
//! itself against:
//!
//! * synchronous Cole–Vishkin 3-coloring of the oriented ring
//!   (`½ log* n + O(1)` rounds, zero fault tolerance) vs Algorithm 3
//!   under the same synchronous schedule — the "price of wait-freedom"
//!   is a constant factor in rounds plus two extra colors;
//! * rank-based `(2n−1)`-renaming on the clique — the shared-memory
//!   ancestor of Algorithm 2, and the source of the 5-color lower bound
//!   on `C3` (Property 2.3).

use crate::common::{run_cycle, SchedKind};
use ftcolor_core::renaming::RankRenaming;
use ftcolor_core::sync_local::{ColeVishkinThree, CvInput};
use ftcolor_core::FastFiveColoring;
use ftcolor_model::inputs;
use ftcolor_model::logstar::log_star_u64;
use ftcolor_model::prelude::*;
use serde::Serialize;

/// One row of the CV-vs-Algorithm-3 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CvRow {
    /// Ring size.
    pub n: usize,
    /// `log* n`.
    pub log_star: u32,
    /// Synchronous CV rounds (3 colors, no fault tolerance).
    pub cv_rounds: u64,
    /// Algorithm 3 rounds under the same synchronous schedule
    /// (5 colors, wait-free).
    pub alg3_rounds: u64,
    /// Ratio ×1000.
    pub ratio_milli: u64,
}

/// Runs the round-count comparison on staircase-poly identifiers.
pub fn run_cv(sizes: &[usize]) -> Vec<CvRow> {
    sizes
        .iter()
        .map(|&n| {
            let ids = inputs::staircase_poly(n);
            let alg = ColeVishkinThree::for_max_id(*ids.iter().max().unwrap());
            let topo = Topology::cycle(n).unwrap();
            let cv_inputs: Vec<CvInput> = ids
                .iter()
                .enumerate()
                .map(|(pos, &x)| CvInput { x, pos, n })
                .collect();
            let mut exec = Execution::new(&alg, &topo, cv_inputs);
            let cv_rounds = exec
                .run(Synchronous::new(), 1_000_000)
                .expect("failure-free sync")
                .max_activations();

            let (_, report) = run_cycle(&FastFiveColoring, &ids, SchedKind::Sync, 0, 1_000_000)
                .expect("wait-free");
            let alg3_rounds = report.max_activations();
            CvRow {
                n,
                log_star: log_star_u64(n as u64),
                cv_rounds,
                alg3_rounds,
                ratio_milli: alg3_rounds * 1000 / cv_rounds.max(1),
            }
        })
        .collect()
}

/// One row of the renaming table.
#[derive(Debug, Clone, Serialize)]
pub struct RenameRow {
    /// Process count.
    pub n: usize,
    /// The `2n − 1` name-space bound (names `0..=2n−2`).
    pub name_space: u64,
    /// Largest name observed across schedules and seeds.
    pub max_name: u64,
    /// Worst-case activations observed.
    pub max_activations: u64,
    /// Whether all executions produced distinct, in-range names.
    pub ok: bool,
}

/// Runs renaming across schedules/seeds per clique size.
pub fn run_renaming(sizes: &[usize], seeds: u64) -> Vec<RenameRow> {
    sizes
        .iter()
        .map(|&n| {
            let topo = Topology::clique(n).unwrap();
            let mut max_name = 0u64;
            let mut max_acts = 0u64;
            let mut ok = true;
            for seed in 0..seeds {
                let ids = inputs::random_unique(n, 100_000, seed);
                for sched in [
                    Box::new(Synchronous::new()) as Box<dyn Schedule>,
                    Box::new(RandomSubset::new(seed + 1, 0.5)),
                    Box::new(SoloRunner::ascending(n)),
                ] {
                    let mut exec = Execution::new(&RankRenaming, &topo, ids.clone());
                    let report = exec.run(sched, 2_000_000).expect("wait-free");
                    let names: Vec<u64> = report.outputs.iter().flatten().copied().collect();
                    let mut sorted = names.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    ok &= report.all_returned() && sorted.len() == names.len();
                    max_name = max_name.max(names.iter().copied().max().unwrap_or(0));
                    max_acts = max_acts.max(report.max_activations());
                }
            }
            ok &= max_name <= 2 * n as u64 - 2;
            RenameRow {
                n,
                name_space: 2 * n as u64 - 1,
                max_name,
                max_activations: max_acts,
                ok,
            }
        })
        .collect()
}

/// Renders both E9 tables.
pub fn table(cv: &[CvRow], rn: &[RenameRow]) -> String {
    let mut out = crate::common::render_table(
        "E9a — synchronous Cole–Vishkin (3 colors, fragile) vs Algorithm 3 (5 colors, wait-free)",
        &["n", "log*", "CV rounds", "Alg3 rounds", "ratio"],
        &cv.iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.log_star.to_string(),
                    r.cv_rounds.to_string(),
                    r.alg3_rounds.to_string(),
                    format!("{:.2}", r.ratio_milli as f64 / 1000.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out.push('\n');
    out.push_str(&crate::common::render_table(
        "E9b — rank-based renaming on the clique: names fit in 2n−1",
        &["n", "name space", "max name", "max acts", "ok"],
        &rn.iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.name_space.to_string(),
                    r.max_name.to_string(),
                    r.max_activations.to_string(),
                    r.ok.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv_and_alg3_are_both_near_constant() {
        let rows = run_cv(&[8, 64, 512, 1024]);
        for r in &rows {
            assert!(r.cv_rounds <= 15, "{r:?}");
            assert!(r.alg3_rounds <= 60, "{r:?}");
        }
        // The price of wait-freedom is a constant factor in rounds.
        for r in rows.iter().filter(|r| r.n == 64 || r.n == 1024) {
            assert!(r.cv_rounds <= 12, "{r:?}");
            assert!(r.alg3_rounds <= 12 * r.cv_rounds, "{r:?}");
        }
    }

    #[test]
    fn renaming_fits_the_name_space() {
        let rows = run_renaming(&[2, 3, 5, 7], 3);
        for r in &rows {
            assert!(r.ok, "{r:?}");
        }
    }
}
