//! `explore`: `ParallelModelChecker::explore` on Algorithm 2′, `C5`,
//! with symmetry reduction and partial-order reduction, capped, on one
//! worker thread — the mode the open wait-freedom question runs in.
//!
//! Algorithm 2′ reads identifiers only through their order, so the
//! shape of the configuration graph depends only on how the identifier
//! order runs around the ring. One identifier assignment per seed would
//! make the measured work depend on which of the twelve orderings the
//! seed drew (configs/s varied by ~9% and complete colorings per second
//! by ~37% across seeds). A repetition therefore explores all
//! [`ORDERINGS`] orderings of `C5` up to rotation and reflection, each
//! capped; the seed draws the identifier values — `0..5` for the
//! default seed, five distinct values below 64 otherwise — which change
//! register contents, interning and hashing, but not the graph's shape.

use crate::spans::Recorder;
use crate::{
    bytes_per, int, peak_rss_kib, probe, rss_kib, text, timed, timed_setup, Rep, Scale, Work,
    DEFAULT_SEED,
};
use ftcolor_checker::{ModelCheckOutcome, ParallelModelChecker};
use ftcolor_core::FiveColoringPatched;
use ftcolor_model::{inputs, Topology};
use serde::Value;

/// Ring size.
pub const N: usize = 5;

/// Cyclic orderings of five identifiers up to rotation and reflection.
pub const ORDERINGS: usize = 12;

/// Colors of Algorithm 2′.
const PALETTE: u64 = 5;

/// Random-walk steps of the traced run's checker probes.
const PROBE_STEPS: usize = 24_000;

/// Configuration cap of each exploration at `scale`.
pub fn max_configs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40_000,
        Scale::Tiny => 400,
    }
}

/// Identifier ranks by ring position, one array per ordering: rank 0
/// sits at position 0 (rotation) and position 1 holds a lower rank
/// than position 4 (reflection). The first is the identity.
pub fn orderings() -> Vec<[usize; N]> {
    let mut out = Vec::with_capacity(ORDERINGS);
    for a in 1..N {
        for b in 1..N {
            for c in 1..N {
                for d in a + 1..N {
                    let ranks = [0, a, b, c, d];
                    let mut sorted = ranks;
                    sorted.sort_unstable();
                    if sorted == [0, 1, 2, 3, 4] {
                        out.push(ranks);
                    }
                }
            }
        }
    }
    out
}

/// The identifier assignments explored for `seed`, one per ordering.
pub fn instances(seed: u64) -> Vec<Vec<u64>> {
    let mut values: Vec<u64> = if seed == DEFAULT_SEED {
        (0..N as u64).collect()
    } else {
        inputs::random_unique(N, 64, seed)
    };
    values.sort_unstable();
    orderings()
        .iter()
        .map(|ranks| ranks.iter().map(|&r| values[r]).collect())
        .collect()
}

/// The safety predicate: no two neighbors returned the same color, and
/// every returned color is in the palette.
fn coloring_safety(topo: &Topology, outputs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outputs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outputs
        .iter()
        .flatten()
        .find(|&&c| c >= PALETTE)
        .map(|c| format!("color {c} outside palette"))
}

/// Explores one identifier assignment.
///
/// # Panics
///
/// Panics if the checker refuses the configuration (a benchmark bug).
pub fn explore(topo: &Topology, ids: &[u64], scale: Scale) -> ModelCheckOutcome<u64> {
    ParallelModelChecker::new(&FiveColoringPatched, topo, ids.to_vec())
        .with_max_configs(max_configs(scale))
        .with_jobs(1)
        .with_symmetry(true)
        .with_por(true)
        .explore(coloring_safety)
        .expect("alg2p is certified for symmetry and POR on C5")
}

/// The verdict of one exploration, as the CLI words it.
pub fn verdict(o: &ModelCheckOutcome<u64>) -> String {
    format!(
        "safety={} livelock={} truncated={}",
        if o.safety_violation.is_none() {
            "ok"
        } else {
            "VIOLATED"
        },
        if o.livelock.is_none() {
            "none"
        } else {
            "FOUND"
        },
        o.truncated
    )
}

/// One repetition of `explore`.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Rep {
    let (setup_s, (topo, instances)) =
        timed_setup(|| (Topology::cycle(N).expect("n >= 3"), instances(seed)));

    let rss_before = rss_kib();
    let mut rec = Recorder::new();
    let explore_all = |rec: &mut Recorder| {
        instances
            .iter()
            .map(|ids| {
                let span = traced.then(|| rec.open("checker.parallel"));
                let outcome = explore(&topo, ids, scale);
                if let Some(span) = span {
                    rec.close(span);
                }
                outcome
            })
            .collect::<Vec<_>>()
    };
    let (outcomes, wall_s) = timed(|| explore_all(&mut rec));
    let peak_kib = peak_rss_kib();

    let failed = outcomes
        .iter()
        .filter(|o| o.safety_violation.is_some() || o.livelock.is_some())
        .count() as u64;
    let oracle_error = (failed > 0).then(|| {
        let verdicts: Vec<String> = outcomes.iter().map(verdict).collect();
        format!("explore verdicts: {verdicts:?}")
    });
    let sum = |f: fn(&ModelCheckOutcome<u64>) -> usize| -> u64 {
        outcomes.iter().map(|o| f(o) as u64).sum()
    };
    let configs = sum(|o| o.configs);
    let edges = sum(|o| o.edges);
    let terminated = sum(|o| o.fully_terminated_configs);
    let stat = |f: fn(&ModelCheckOutcome<u64>) -> u64| -> u64 { outcomes.iter().map(f).sum() };
    let truncated = outcomes.iter().filter(|o| o.truncated).count();

    let mut layers = Vec::new();
    if traced {
        let walk = probe::walk(
            &FiveColoringPatched,
            &topo,
            &instances,
            seed,
            PROBE_STEPS,
            true,
        );
        let explore_s = rec.total_ns("checker.parallel") as f64 / 1e9;
        let successors = stat(|o| o.stats.dedup_lookups) as f64;
        let hits = stat(|o| o.stats.dedup_hits) as f64;
        let per_successor_ns =
            walk.step_ns + walk.encode_delta_ns + walk.restore_ns + walk.canonicalize_ns;
        layers = vec![
            ("model.executor.step_ns", walk.step_ns),
            ("model.encode.encode_delta_ns", walk.encode_delta_ns),
            ("model.encode.restore_ns", walk.restore_ns),
            (
                "model.encode.interned_values",
                stat(|o| o.stats.interned_values) as f64,
            ),
            ("checker.parallel.explore_s", explore_s),
            ("checker.parallel.edges", edges as f64),
            ("checker.parallel.successors", successors),
            (
                "checker.parallel.new_ratio",
                1.0 - hits / successors.max(1.0),
            ),
            (
                "checker.parallel.visited_bytes_per_config",
                stat(|o| o.stats.peak_visited_bytes) as f64 / configs.max(1) as f64,
            ),
            (
                "checker.parallel.rss_bytes_per_config",
                bytes_per(rss_before, peak_kib, configs / ORDERINGS as u64),
            ),
            (
                "checker.parallel.other_share_est",
                1.0 - per_successor_ns * successors / (explore_s * 1e9),
            ),
            ("checker.symmetry.canonicalize_ns", walk.canonicalize_ns),
            (
                "checker.symmetry.share_est",
                walk.canonicalize_ns * successors / (explore_s * 1e9),
            ),
            (
                "checker.por.pruned_sets",
                stat(|o| o.stats.por_pruned_sets) as f64,
            ),
        ];
    }

    Rep {
        workload: "explore",
        seed,
        traced,
        params: vec![
            ("algorithm", text("alg2p")),
            ("n", int(N as u64)),
            (
                "instances",
                Value::Array(
                    instances
                        .iter()
                        .map(|ids| Value::Array(ids.iter().map(|&i| int(i)).collect()))
                        .collect(),
                ),
            ),
            ("max_configs_each", int(max_configs(scale) as u64)),
            ("symmetry", Value::Bool(true)),
            ("por", Value::Bool(true)),
            ("jobs", int(1)),
        ],
        setup_s,
        wall_s,
        peak_rss_kib: peak_kib,
        ops: configs,
        failed,
        oracle_error,
        det: vec![
            ("configs", int(configs)),
            ("edges", int(edges)),
            ("fully_terminated_configs", int(terminated)),
            (
                "verdict",
                text(format!(
                    "{} explorations, {failed} unsafe or livelocked, {truncated} truncated",
                    outcomes.len()
                )),
            ),
        ],
        work: Work {
            colorings: terminated,
            configs,
            processes: configs * N as u64,
            events: edges,
        },
        layers,
        spans: rec.into_spans(),
    }
}
