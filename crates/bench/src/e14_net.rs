//! **E14 — the message-passing substrate (`ftcolor-net`).** Throughput
//! and fault-tolerance of the discrete-event network simulator: the same
//! registry algorithms, executed as nodes exchanging JSON-framed
//! `write`/`snapshot_req`/`snapshot_resp` messages on the ring, under a
//! seeded fault plan. Measured here:
//!
//! * messages/sec and events/sec of the simulator at n ∈ {100, 1k, 10k}
//!   (timed comparisons between commits use perfbench's `netsim`
//!   workload);
//! * the coloring stays proper and every correct process returns under
//!   clean, lossy, and crash plans — the network layer adds liveness
//!   machinery (retransmits, freshness merge), never new behaviors.

use ftcolor_core::FastFiveColoringPatched;
use ftcolor_model::{inputs, Topology};
use ftcolor_net::{run_net, FaultPlan, NetConfig};
use serde::Serialize;
use std::time::Instant;

/// One (n, fault plan) measurement of the network substrate.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Fault-plan label (`clean`, `lossy-10%`, `1-crash`).
    pub plan: &'static str,
    /// Messages sent (including retransmissions and duplicates).
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost to link faults or partitions.
    pub dropped: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Maximum rounds committed by any process.
    pub rounds_max: u64,
    /// Logical time at which the run stopped.
    pub logical_time: u64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Messages per wall-clock second.
    pub msgs_per_sec: f64,
    /// Simulator events per wall-clock second.
    pub events_per_sec: f64,
    /// The output is a proper partial coloring.
    pub proper: bool,
    /// Every non-crashed process returned.
    pub returned: bool,
}

fn plans(n: usize, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::clean()),
        ("lossy-10%", FaultPlan::lossy(0.10)),
        (
            "1-crash",
            FaultPlan::default().with_crash((seed as usize) % n, 3),
        ),
    ]
}

/// Runs Algorithm 3 (patched) on the network substrate across sizes and
/// fault plans, reporting simulator throughput and outcome quality.
pub fn run(sizes: &[usize], seed: u64) -> Vec<Row> {
    let alg = FastFiveColoringPatched;
    let mut rows = Vec::new();
    for &n in sizes {
        let topo = Topology::cycle(n).expect("n >= 3");
        let xs = inputs::staircase_poly(n);
        for (label, plan) in plans(n, seed) {
            let cfg = NetConfig::new(seed);
            let t0 = Instant::now();
            let report = run_net(&alg, &topo, xs.clone(), &plan, &cfg);
            let wall = t0.elapsed().as_secs_f64();
            rows.push(Row {
                n,
                plan: label,
                sent: report.stats.sent,
                delivered: report.stats.delivered,
                dropped: report.stats.dropped + report.stats.partition_dropped,
                events: report.stats.events_processed,
                rounds_max: report.rounds.iter().copied().max().unwrap_or(0),
                logical_time: report.time,
                wall_ms: wall * 1e3,
                msgs_per_sec: report.stats.sent as f64 / wall.max(1e-9),
                events_per_sec: report.stats.events_processed as f64 / wall.max(1e-9),
                proper: topo.is_proper_partial_coloring(&report.outputs),
                returned: {
                    use ftcolor_model::SubstrateReport;
                    report.all_correct_returned()
                },
            });
        }
    }
    rows
}

/// Renders the E14 table.
pub fn table(rows: &[Row]) -> String {
    crate::common::render_table(
        "E14 — message-passing substrate: simulator throughput and outcome \
         quality under seeded fault plans (Algorithm 3 patched)",
        &[
            "n", "plan", "sent", "dropped", "events", "rounds", "msgs/s", "events/s", "proper",
            "returned",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.plan.to_string(),
                    r.sent.to_string(),
                    r.dropped.to_string(),
                    r.events.to_string(),
                    r.rounds_max.to_string(),
                    format!("{:.0}", r.msgs_per_sec),
                    format!("{:.0}", r.events_per_sec),
                    r.proper.to_string(),
                    r.returned.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_runs_stay_proper_and_live() {
        for r in run(&[16, 48], 5) {
            assert!(r.proper, "{r:?}");
            assert!(r.returned, "{r:?}");
            assert!(r.sent > 0 && r.events > 0, "{r:?}");
            if r.plan == "clean" {
                assert_eq!(r.dropped, 0, "{r:?}");
            }
        }
    }
}
