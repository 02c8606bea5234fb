//! **E6 — Property 2.3 & exhaustive soundness.** Exhaustive exploration
//! of *every* schedule (hence every crash pattern) on small cycles:
//!
//! * safety (properness + palette) holds at every reachable
//!   configuration for Algorithms 1–3;
//! * palette attainment: across executions, Algorithm 2 genuinely uses
//!   colors up to 4 — consistent with Property 2.3's lower bound of 5
//!   colors (on `C3` the model *is* 3-process shared memory, where
//!   renaming needs `2·3−1 = 5` names);
//! * termination: Algorithm 1's configuration graph is cycle-free
//!   (wait-free, crashes included), while Algorithms 2/3 exhibit the
//!   documented crash livelock (DESIGN.md, "Reproduction findings").
//!
//! Each row also reports the exploration's throughput (configurations
//! per second) and the explored graph's peak footprint from
//! [`ftcolor_checker::stats::ExploreStats`], and every instance gets a
//! `--symmetry` twin: the same exploration in the orbit quotient under
//! the dihedral group of the cycle. Verdict columns must agree between
//! a full row and its twin; the `configs` column shows how much (or,
//! for asymmetric identifier assignments, how little) the quotient
//! collapses. The rotation-invariant instances (`C4 ids=[0,1,0,1]`,
//! `C6 ids=[0,1,2,0,1,2]`) are the ones where orbits genuinely merge.
//!
//! The largest committed instance (`C5`) additionally gets `--por`
//! twins: the same exploration under the ample-set partial-order
//! reduction, with and without `--symmetry`. `run` asserts in-line that
//! every reduced row reproduces its unreduced twin's verdicts (the
//! differential suite in `tests/por_soundness.rs` pins the stronger
//! bit-identity property); the `configs` column shows what the
//! canonical-component staircase saves.

use ftcolor_checker::modelcheck::ModelCheckOutcome;
use ftcolor_checker::ModelChecker;
use ftcolor_core::{ring_safety, FastFiveColoring, FiveColoring, FiveColoringPatched, SixColoring};
use ftcolor_model::Topology;
use serde::Serialize;

/// One algorithm × instance exploration result.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Instance label (topology + ids).
    pub instance: String,
    /// Ring size.
    pub n: usize,
    /// Configuration cap the exploration ran under.
    pub bound: usize,
    /// Whether the exploration ran in the orbit quotient (`--symmetry`).
    pub symmetry: bool,
    /// Whether the exploration ran under partial-order reduction
    /// (`--por`).
    pub por: bool,
    /// Reachable configurations (orbit representatives when `symmetry`).
    pub configs: usize,
    /// Transitions explored.
    pub edges: usize,
    /// Whether any reachable configuration violates safety.
    pub safety_ok: bool,
    /// Whether a livelock cycle exists in the configuration graph.
    pub livelock: bool,
    /// Number of distinct colors output across all executions.
    pub distinct_colors: usize,
    /// Whether exploration completed (not truncated).
    pub complete: bool,
    /// Exact worst-case round complexity over all schedules (computed
    /// for acyclic configuration graphs — i.e. Algorithm 1; `None` when
    /// cyclic/truncated/not computed).
    pub exact_worst: Option<u64>,
    /// Exploration throughput in configurations per second.
    pub configs_per_sec: u64,
    /// Peak footprint of the explored graph in bytes (node arena, parent
    /// links, edges and interners; see `ExploreStats::peak_visited_bytes`).
    pub peak_visited_bytes: u64,
}

fn row_from<O: std::fmt::Debug>(
    algorithm: &'static str,
    instance: String,
    n: usize,
    bound: usize,
    symmetry: bool,
    por: bool,
    o: &ModelCheckOutcome<O>,
) -> Row {
    Row {
        algorithm,
        instance,
        n,
        bound,
        symmetry,
        por,
        configs: o.configs,
        edges: o.edges,
        safety_ok: o.safety_violation.is_none(),
        livelock: o.livelock.is_some(),
        distinct_colors: o.outputs_seen.len(),
        complete: !o.truncated,
        exact_worst: None,
        configs_per_sec: o.stats.configs_per_sec,
        peak_visited_bytes: o.stats.peak_visited_bytes,
    }
}

/// Runs the exhaustive explorations. `max_configs` caps each instance.
pub fn run(max_configs: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let instances: Vec<(String, Vec<u64>)> = vec![
        ("C3 ids=[0,1,2]".into(), vec![0, 1, 2]),
        ("C3 ids=[5,11,7]".into(), vec![5, 11, 7]),
        ("C4 ids=[0,1,2,3]".into(), vec![0, 1, 2, 3]),
        ("C4 ids=[3,0,2,5]".into(), vec![3, 0, 2, 5]),
        ("C5 ids=[0,1,2,3,4]".into(), vec![0, 1, 2, 3, 4]),
    ];
    for (label, ids) in &instances {
        let n = ids.len();
        let topo = Topology::cycle(n).unwrap();
        for symmetry in [false, true] {
            let mc = ModelChecker::new(&SixColoring, &topo, ids.clone())
                .with_max_configs(max_configs)
                .with_symmetry(symmetry);
            let o = mc
                .explore(|topo, outputs| {
                    if let Some((a, b)) = topo.first_conflict(outputs) {
                        return Some(format!("conflict on edge {a}-{b}"));
                    }
                    outputs
                        .iter()
                        .flatten()
                        .find(|c| c.weight() > 2)
                        .map(|c| format!("color {c} outside palette"))
                })
                .unwrap();
            let mut row = row_from(
                "Alg1 (6-coloring)",
                label.clone(),
                n,
                max_configs,
                symmetry,
                false,
                &o,
            );
            // Algorithm 1's configuration graph is acyclic: compute the
            // exact worst-case round complexity over all schedules. A
            // truncated run reports `None` but still surfaces the work
            // it did through its stats, rather than returning silently.
            let (w, _dp_stats) = ModelChecker::new(&SixColoring, &topo, ids.clone())
                .with_max_configs(max_configs)
                .with_symmetry(symmetry)
                .exact_worst_case_with_stats()
                .unwrap();
            row.exact_worst = w;
            rows.push(row);

            let mc = ModelChecker::new(&FiveColoring, &topo, ids.clone())
                .with_max_configs(max_configs)
                .with_symmetry(symmetry);
            let o = mc.explore(ring_safety(&FiveColoring)).unwrap();
            rows.push(row_from(
                "Alg2 (5-coloring)",
                label.clone(),
                n,
                max_configs,
                symmetry,
                false,
                &o,
            ));

            let mc = ModelChecker::new(&FastFiveColoring, &topo, ids.clone())
                .with_max_configs(max_configs)
                .with_symmetry(symmetry);
            let o = mc.explore(ring_safety(&FastFiveColoring)).unwrap();
            rows.push(row_from(
                "Alg3 (fast 5-coloring)",
                label.clone(),
                n,
                max_configs,
                symmetry,
                false,
                &o,
            ));

            // The candidate repair: bounded-depth search (its counter makes
            // the space infinite; a finite search can refute but not fully
            // certify — no cycle can exist by the monotone-counter argument,
            // so "livelock: none" here is expected and `complete: false`
            // reflects the truncation honestly).
            let patched_cap = max_configs.min(400_000);
            let mc = ModelChecker::new(&FiveColoringPatched, &topo, ids.clone())
                .with_max_configs(patched_cap)
                .with_symmetry(symmetry);
            let o = mc.explore(ring_safety(&FiveColoringPatched)).unwrap();
            rows.push(row_from(
                "Alg2-patched",
                label.clone(),
                n,
                patched_cap,
                symmetry,
                false,
                &o,
            ));
        }
    }

    // Rotation-invariant identifier assignments: the quotient genuinely
    // collapses orbits here (ids repeat with the rotation period, so
    // distinct reachable configurations fall into common orbits). The
    // unpatched Algorithm 2 keeps its livelock verdict through the
    // quotient — the soundness property tests/symmetry_soundness.rs pins.
    let symmetric_instances: Vec<(String, Vec<u64>)> = vec![
        ("C4 ids=[0,1,0,1]".into(), vec![0, 1, 0, 1]),
        ("C6 ids=[0,1,2,0,1,2]".into(), vec![0, 1, 2, 0, 1, 2]),
    ];
    for (label, ids) in &symmetric_instances {
        let n = ids.len();
        let topo = Topology::cycle(n).unwrap();
        let cap = max_configs.min(400_000);
        for symmetry in [false, true] {
            let mc = ModelChecker::new(&FiveColoring, &topo, ids.clone())
                .with_max_configs(cap)
                .with_symmetry(symmetry);
            let o = mc.explore(ring_safety(&FiveColoring)).unwrap();
            rows.push(row_from(
                "Alg2 (5-coloring)",
                label.clone(),
                n,
                cap,
                symmetry,
                false,
                &o,
            ));
        }
    }

    // Partial-order-reduction twins on the largest committed instance:
    // C5 × {Alg1, Alg2, Alg2-patched} × {plain, --symmetry}, explored
    // under the ample-set staircase. Each reduced row must reproduce
    // its unreduced twin's verdicts — asserted here so the experiments
    // binary itself is a soundness check, not just a stopwatch.
    let por_label = "C5 ids=[0,1,2,3,4]".to_string();
    let por_ids: Vec<u64> = vec![0, 1, 2, 3, 4];
    let por_topo = Topology::cycle(5).unwrap();
    macro_rules! por_twin {
        ($alg:expr, $name:expr, $cap:expr, $symmetry:expr) => {{
            let o = ModelChecker::new($alg, &por_topo, por_ids.clone())
                .with_max_configs($cap)
                .with_symmetry($symmetry)
                .with_por(true)
                .explore(ring_safety($alg))
                .unwrap();
            let row = row_from($name, por_label.clone(), 5, $cap, $symmetry, true, &o);
            let twin = rows
                .iter()
                .find(|r| {
                    !r.por
                        && r.algorithm == $name
                        && r.instance == por_label
                        && r.symmetry == $symmetry
                        && r.bound == $cap
                })
                .expect("every POR row has an unreduced twin");
            assert_eq!(
                twin.safety_ok, row.safety_ok,
                "{}: safety verdict must survive the reduction",
                $name
            );
            assert_eq!(
                twin.complete, row.complete,
                "{}: truncation must agree with the unreduced twin",
                $name
            );
            if twin.complete {
                assert_eq!(twin.livelock, row.livelock, "{}: livelock verdict", $name);
                assert!(
                    row.configs <= twin.configs,
                    "{}: the reduction may never be larger ({} vs {})",
                    $name,
                    row.configs,
                    twin.configs
                );
            }
            rows.push(row);
        }};
    }
    for symmetry in [false, true] {
        por_twin!(&SixColoring, "Alg1 (6-coloring)", max_configs, symmetry);
        por_twin!(&FiveColoring, "Alg2 (5-coloring)", max_configs, symmetry);
        por_twin!(
            &FiveColoringPatched,
            "Alg2-patched",
            max_configs.min(400_000),
            symmetry
        );
    }
    rows
}

/// Renders the E6 table.
pub fn table(rows: &[Row]) -> String {
    crate::common::render_table(
        "E6 (Property 2.3 + exhaustive soundness) — all schedules, all crash patterns",
        &[
            "algorithm",
            "instance",
            "sym",
            "por",
            "configs",
            "edges",
            "safety",
            "livelock",
            "colors seen",
            "complete",
            "exact worst",
            "cfg/s",
            "peak KiB",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.to_string(),
                    r.instance.clone(),
                    if r.symmetry { "yes" } else { "-" }.into(),
                    if r.por { "yes" } else { "-" }.into(),
                    r.configs.to_string(),
                    r.edges.to_string(),
                    if r.safety_ok {
                        "ok".into()
                    } else {
                        "VIOLATED".into()
                    },
                    if r.livelock {
                        "FOUND".into()
                    } else {
                        "none".into()
                    },
                    r.distinct_colors.to_string(),
                    r.complete.to_string(),
                    r.exact_worst.map_or("-".into(), |w| w.to_string()),
                    r.configs_per_sec.to_string(),
                    (r.peak_visited_bytes / 1024).to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_small_instances() {
        // A small cap keeps the debug-mode test fast; the experiments
        // binary runs the same sweep at the real (quick/full) caps.
        let rows = run(60_000);
        for r in &rows {
            assert!(r.safety_ok, "safety must hold everywhere: {r:?}");
        }
        // Algorithm 1 on C3 must be livelock-free if complete.
        for r in rows
            .iter()
            .filter(|r| r.algorithm.starts_with("Alg1") && r.instance.starts_with("C3"))
        {
            assert!(r.complete, "{r:?}");
            assert!(!r.livelock, "Algorithm 1 must be wait-free: {r:?}");
        }
        // The candidate repair: no livelock can be found (none exists, by
        // the monotone-counter argument).
        for r in rows.iter().filter(|r| r.algorithm == "Alg2-patched") {
            assert!(!r.livelock, "{r:?}");
        }
        // Each full row has a symmetry twin. When the full exploration
        // completes, the quotient must complete too (it is never larger)
        // with identical verdicts; under truncation the two modes cover
        // different regions, so only soundness-safe facts are asserted.
        for full in rows.iter().filter(|r| !r.symmetry) {
            let twin = rows
                .iter()
                .find(|r| {
                    r.symmetry
                        && r.por == full.por
                        && r.algorithm == full.algorithm
                        && r.instance == full.instance
                })
                .expect("every row has a symmetry twin");
            assert_eq!(full.safety_ok, twin.safety_ok, "{full:?}");
            if full.complete {
                assert!(twin.complete, "quotient of a complete space: {twin:?}");
                assert_eq!(full.livelock, twin.livelock, "{full:?}");
                // Under POR the quotient is not necessarily smaller:
                // the staircase picks subsets relative to each
                // representative's working ids, so quotient-of-reduced
                // and reduced-of-quotient reach slightly different
                // representative sets (verdicts still agree). The
                // monotonicity claim holds for the unreduced rows.
                if !full.por {
                    assert!(twin.configs <= full.configs, "{full:?} vs {twin:?}");
                }
                assert_eq!(full.exact_worst, twin.exact_worst, "{full:?}");
            }
        }
        // The rotation-invariant instances genuinely collapse.
        for full in rows
            .iter()
            .filter(|r| !r.symmetry && r.instance.contains("[0,1,0,1]"))
        {
            let twin = rows
                .iter()
                .find(|r| r.symmetry && !r.por && r.instance == full.instance)
                .unwrap();
            assert!(
                twin.configs * 2 <= full.configs,
                "expected ≥2x collapse: {} vs {}",
                twin.configs,
                full.configs
            );
        }
    }

    /// `(algorithm, instance, symmetry, por) → configs` for every row
    /// of the quick sweep (`run(400_000)`), in row order. The
    /// checker is deterministic, so any drift is a semantic change to
    /// the exploration, not noise.
    #[rustfmt::skip]
    const QUICK_CONFIGS: &[(&str, &str, bool, bool, usize)] = &[
        ("Alg1 (6-coloring)", "C3 ids=[0,1,2]", false, false, 116),
        ("Alg2 (5-coloring)", "C3 ids=[0,1,2]", false, false, 761),
        ("Alg3 (fast 5-coloring)", "C3 ids=[0,1,2]", false, false, 1520),
        ("Alg2-patched", "C3 ids=[0,1,2]", false, false, 400000),
        ("Alg1 (6-coloring)", "C3 ids=[0,1,2]", true, false, 116),
        ("Alg2 (5-coloring)", "C3 ids=[0,1,2]", true, false, 761),
        ("Alg3 (fast 5-coloring)", "C3 ids=[0,1,2]", true, false, 1520),
        ("Alg2-patched", "C3 ids=[0,1,2]", true, false, 400001),
        ("Alg1 (6-coloring)", "C3 ids=[5,11,7]", false, false, 116),
        ("Alg2 (5-coloring)", "C3 ids=[5,11,7]", false, false, 761),
        ("Alg3 (fast 5-coloring)", "C3 ids=[5,11,7]", false, false, 2184),
        ("Alg2-patched", "C3 ids=[5,11,7]", false, false, 400001),
        ("Alg1 (6-coloring)", "C3 ids=[5,11,7]", true, false, 116),
        ("Alg2 (5-coloring)", "C3 ids=[5,11,7]", true, false, 761),
        ("Alg3 (fast 5-coloring)", "C3 ids=[5,11,7]", true, false, 2184),
        ("Alg2-patched", "C3 ids=[5,11,7]", true, false, 400000),
        ("Alg1 (6-coloring)", "C4 ids=[0,1,2,3]", false, false, 1542),
        ("Alg2 (5-coloring)", "C4 ids=[0,1,2,3]", false, false, 32705),
        ("Alg3 (fast 5-coloring)", "C4 ids=[0,1,2,3]", false, false, 76975),
        ("Alg2-patched", "C4 ids=[0,1,2,3]", false, false, 400001),
        ("Alg1 (6-coloring)", "C4 ids=[0,1,2,3]", true, false, 1542),
        ("Alg2 (5-coloring)", "C4 ids=[0,1,2,3]", true, false, 32705),
        ("Alg3 (fast 5-coloring)", "C4 ids=[0,1,2,3]", true, false, 74904),
        ("Alg2-patched", "C4 ids=[0,1,2,3]", true, false, 400000),
        ("Alg1 (6-coloring)", "C4 ids=[3,0,2,5]", false, false, 1035),
        ("Alg2 (5-coloring)", "C4 ids=[3,0,2,5]", false, false, 32920),
        ("Alg3 (fast 5-coloring)", "C4 ids=[3,0,2,5]", false, false, 400000),
        ("Alg2-patched", "C4 ids=[3,0,2,5]", false, false, 400000),
        ("Alg1 (6-coloring)", "C4 ids=[3,0,2,5]", true, false, 1035),
        ("Alg2 (5-coloring)", "C4 ids=[3,0,2,5]", true, false, 32920),
        ("Alg3 (fast 5-coloring)", "C4 ids=[3,0,2,5]", true, false, 400001),
        ("Alg2-patched", "C4 ids=[3,0,2,5]", true, false, 400000),
        ("Alg1 (6-coloring)", "C5 ids=[0,1,2,3,4]", false, false, 18361),
        ("Alg2 (5-coloring)", "C5 ids=[0,1,2,3,4]", false, false, 400015),
        ("Alg3 (fast 5-coloring)", "C5 ids=[0,1,2,3,4]", false, false, 400014),
        ("Alg2-patched", "C5 ids=[0,1,2,3,4]", false, false, 400001),
        ("Alg1 (6-coloring)", "C5 ids=[0,1,2,3,4]", true, false, 18361),
        ("Alg2 (5-coloring)", "C5 ids=[0,1,2,3,4]", true, false, 400001),
        ("Alg3 (fast 5-coloring)", "C5 ids=[0,1,2,3,4]", true, false, 400001),
        ("Alg2-patched", "C5 ids=[0,1,2,3,4]", true, false, 400014),
        ("Alg2 (5-coloring)", "C4 ids=[0,1,0,1]", false, false, 2938),
        ("Alg2 (5-coloring)", "C4 ids=[0,1,0,1]", true, false, 906),
        ("Alg2 (5-coloring)", "C6 ids=[0,1,2,0,1,2]", false, false, 400001),
        ("Alg2 (5-coloring)", "C6 ids=[0,1,2,0,1,2]", true, false, 400000),
        ("Alg1 (6-coloring)", "C5 ids=[0,1,2,3,4]", false, true, 17664),
        ("Alg2 (5-coloring)", "C5 ids=[0,1,2,3,4]", false, true, 400001),
        ("Alg2-patched", "C5 ids=[0,1,2,3,4]", false, true, 400004),
        ("Alg1 (6-coloring)", "C5 ids=[0,1,2,3,4]", true, true, 17693),
        ("Alg2 (5-coloring)", "C5 ids=[0,1,2,3,4]", true, true, 400000),
        ("Alg2-patched", "C5 ids=[0,1,2,3,4]", true, true, 400009),
    ];

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes unoptimized; runs under `cargo test --release`"
    )]
    fn quick_sweep_counts_are_pinned() {
        let rows = run(400_000);
        let actual: Vec<_> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.bound, 400_000, "{r:?}");
                (
                    r.algorithm,
                    r.instance.as_str(),
                    r.symmetry,
                    r.por,
                    r.configs,
                )
            })
            .collect();
        assert_eq!(actual, QUICK_CONFIGS);
    }
}
