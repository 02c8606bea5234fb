//! **E19 — the binary wire codec (`ftcolor-net::wire`).** The E14
//! workload (Algorithm 3 patched on the ring, clean and 10%-lossy
//! plans), re-run under every codec the substrates speak:
//!
//! * `json` — the line-delimited JSON baseline every substrate shipped
//!   with;
//! * `binary` — the length-prefixed binary frame codec plus buffer
//!   pooling (the perf claim: ≥3× netsim event throughput at n = 10k);
//! * `typed` — frames handed through the simulator's router as typed
//!   values with **no** byte serialization at all, while fault
//!   accounting still charges the measured binary frame size. This is
//!   the codec-tax ceiling: the gap between `typed` and a byte codec is
//!   exactly what that codec's encode/decode costs.
//!
//! Every row records the codec-independent outcome fields (sent,
//! delivered, events, rounds, trace digest, verdicts) precisely so the
//! regression guard can pin them: a codec that changes any of them is a
//! semantics bug, not a performance trade. Cluster rows (real
//! process rings over pipes) are wall-clock-dependent end to end, so
//! the guard reports them without gating.

use ftcolor_cluster::{cluster_run, ClusterOptions};
use ftcolor_core::FastFiveColoringPatched;
use ftcolor_model::{inputs, SubstrateReport, Topology};
use ftcolor_net::{run_net, Codec, FaultPlan, NetConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (workload, n, plan, codec) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetBenchRow {
    /// `netsim` (deterministic simulator) or `cluster` (real process
    /// ring; wall-clock-dependent, reported but never gated).
    pub workload: String,
    /// Algorithm label.
    pub alg: String,
    /// Ring size.
    pub n: usize,
    /// Fault-plan label (`clean`, `lossy-10%`).
    pub plan: String,
    /// Wire codec (`json`, `binary`, `typed`).
    pub codec: String,
    /// Messages sent (deterministic on netsim; must match exactly).
    pub sent: u64,
    /// Messages delivered (deterministic on netsim).
    pub delivered: u64,
    /// Simulator events processed (deterministic on netsim; 0 for
    /// cluster rows).
    pub events: u64,
    /// Maximum rounds committed by any process (deterministic on
    /// netsim; 0 for cluster rows).
    pub rounds_max: u64,
    /// FNV-1a digest of the delivery trace / journal (deterministic on
    /// netsim — and identical across codecs, which is the whole point).
    pub trace_digest: String,
    /// The output is a proper partial coloring.
    pub proper: bool,
    /// Every non-crashed process returned.
    pub returned: bool,
    /// Bytes on the wire (typed rows charge measured binary sizes).
    pub wire_bytes: u64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Frames encoded per wall-clock second (0 for typed rows, which
    /// encode nothing).
    pub frames_per_sec: u64,
    /// Simulator events per wall-clock second (the gated figure).
    pub events_per_sec: u64,
}

const CODECS: [Codec; 3] = [Codec::Json, Codec::Binary, Codec::Typed];

/// The netsim cell grid for `sizes`, in row order.
pub fn netsim_cells(sizes: &[usize]) -> Vec<(usize, &'static str, Codec)> {
    let mut cells = Vec::new();
    for &n in sizes {
        for (label, _) in plans() {
            for codec in CODECS {
                cells.push((n, label, codec));
            }
        }
    }
    cells
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::clean()),
        ("lossy-10%", FaultPlan::lossy(0.10)),
    ]
}

/// The fault plan behind a row's `plan` label, for re-running one cell.
pub fn plan_by_label(label: &str) -> Option<FaultPlan> {
    plans()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| p)
}

/// Repetitions per netsim cell; the recorded wall is the median, so a
/// first-run warm-up (page cache, allocator arenas) or one descheduled
/// rep cannot skew a committed throughput row.
const NETSIM_REPS: usize = 5;

/// Measures one netsim cell: `NETSIM_REPS` deterministic reps of
/// (n, plan, codec), median wall. A real node process speaks exactly
/// one codec for its whole life, so the honest steady state for a
/// codec's throughput is a process that has only ever run that codec —
/// `bench_net` therefore runs each cell in its own subprocess; running
/// cells back to back in one process lets each codec's allocator and
/// cache wake shift every later cell's clock (measurably: ±15% on the
/// n = 10k rows).
pub fn run_netsim_cell(n: usize, label: &str, codec: Codec, seed: u64) -> NetBenchRow {
    let alg = FastFiveColoringPatched;
    let topo = Topology::cycle(n).expect("n >= 3");
    let xs = inputs::staircase_poly(n);
    let plan = plan_by_label(label).unwrap_or_else(|| panic!("unknown plan label `{label}`"));
    let cfg = NetConfig::new(seed).codec(codec);
    let mut walls = Vec::with_capacity(NETSIM_REPS);
    let mut row = None;
    let mut digest = 0u64;
    for rep in 0..NETSIM_REPS {
        let t0 = Instant::now();
        let report = run_net(&alg, &topo, xs.clone(), &plan, &cfg);
        walls.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            digest = report.trace.digest();
            // wall = 1.0 makes the per-second fields hold raw counts
            // until the median patch-up below.
            row = Some(netsim_row(&topo, n, label, codec, &report, 1.0));
        } else {
            assert_eq!(
                report.trace.digest(),
                digest,
                "netsim reps must be deterministic"
            );
        }
    }
    let mut row = row.expect("NETSIM_REPS >= 1");
    walls.sort_by(f64::total_cmp);
    let wall = walls[NETSIM_REPS / 2];
    row.wall_ms = wall * 1e3;
    row.frames_per_sec = (row.frames_per_sec as f64 / wall) as u64;
    row.events_per_sec = (row.events as f64 / wall) as u64;
    row
}

/// Runs the E14 netsim workload (Algorithm 3 patched) across `sizes` ×
/// {clean, lossy-10%} × {json, binary, typed}, all in this process.
/// Tests use this directly; `bench_net` instead isolates each cell in
/// a subprocess (see [`run_netsim_cell`] for why).
pub fn run_netsim(sizes: &[usize], seed: u64) -> Vec<NetBenchRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (label, _) in plans() {
            for codec in CODECS {
                rows.push(run_netsim_cell(n, label, codec, seed));
            }
        }
    }
    rows
}

/// Builds one netsim row from a report and its (median) wall seconds.
fn netsim_row(
    topo: &Topology,
    n: usize,
    label: &str,
    codec: Codec,
    report: &ftcolor_net::NetReport<u64>,
    wall: f64,
) -> NetBenchRow {
    NetBenchRow {
        workload: "netsim".into(),
        alg: "alg3p".into(),
        n,
        plan: label.into(),
        codec: codec.name().into(),
        sent: report.stats.sent,
        delivered: report.stats.delivered,
        events: report.stats.events_processed,
        rounds_max: report.rounds.iter().copied().max().unwrap_or(0),
        trace_digest: format!("{:016x}", report.trace.digest()),
        proper: topo.is_proper_partial_coloring(&report.outputs),
        returned: report.all_correct_returned(),
        wire_bytes: report.wire.bytes_on_wire,
        wall_ms: wall * 1e3,
        frames_per_sec: (report.wire.frames_encoded as f64 / wall.max(1e-9)) as u64,
        events_per_sec: (report.stats.events_processed as f64 / wall.max(1e-9)) as u64,
    }
}

/// Runs the real-process cluster cell (`alg2p`, clean plan) under the
/// two codecs real pipes speak. Needs the `ftcolor` binary for the node
/// processes; returns no rows (with a note on stderr) when `node_cmd`
/// does not exist — the netsim rows are the gated ones either way.
pub fn run_cluster_rows(n: usize, seed: u64, node_cmd: &std::path::Path) -> Vec<NetBenchRow> {
    if !node_cmd.exists() {
        eprintln!(
            "e19: skipping cluster rows: node binary not found at {}",
            node_cmd.display()
        );
        return Vec::new();
    }
    let mut rows = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let opts = ClusterOptions::default()
            .node_cmd(node_cmd.to_path_buf())
            .codec(codec);
        let t0 = Instant::now();
        let outcome = match cluster_run("alg2p", n, seed, &FaultPlan::clean(), &opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e19: cluster row ({}) failed: {e}", codec.name());
                continue;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let s = &outcome.summary;
        rows.push(NetBenchRow {
            workload: "cluster".into(),
            alg: "alg2p".into(),
            n,
            plan: "clean".into(),
            codec: codec.name().into(),
            sent: s.wire_frames_encoded,
            delivered: s.wire_frames_decoded,
            events: 0,
            rounds_max: 0,
            trace_digest: s.trace_digest.clone(),
            proper: s.valid,
            returned: s.all_correct_returned,
            wire_bytes: s.wire_bytes,
            wall_ms: wall * 1e3,
            frames_per_sec: (s.wire_frames_encoded as f64 / wall.max(1e-9)) as u64,
            events_per_sec: 0,
        });
    }
    rows
}

/// Renders the E19 table.
pub fn table(rows: &[NetBenchRow]) -> String {
    crate::common::render_table(
        "E19 — wire codecs: the E14 workload under json / binary / typed \
         framing (typed = no byte serialization, binary-sized accounting)",
        &[
            "workload", "n", "plan", "codec", "sent", "events", "bytes", "wall ms", "events/s",
            "proper", "returned",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    r.n.to_string(),
                    r.plan.clone(),
                    r.codec.clone(),
                    r.sent.to_string(),
                    r.events.to_string(),
                    r.wire_bytes.to_string(),
                    format!("{:.1}", r.wall_ms),
                    r.events_per_sec.to_string(),
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

    /// Every codec lands on the same deterministic outcome fields — the
    /// bench rows themselves re-prove the cross-codec claim — and the
    /// byte accounting orders the codecs the way the design says it
    /// must (binary < json; typed == binary).
    #[test]
    fn codec_rows_agree_on_everything_but_bytes_and_time() {
        let rows = run_netsim(&[24], 7);
        assert_eq!(rows.len(), 6);
        for chunk in rows.chunks(3) {
            let [json, bin, typed] = chunk else {
                panic!("rows come in codec triples")
            };
            for r in chunk {
                assert!(r.proper && r.returned, "{r:?}");
            }
            for other in [bin, typed] {
                assert_eq!(json.sent, other.sent);
                assert_eq!(json.delivered, other.delivered);
                assert_eq!(json.events, other.events);
                assert_eq!(json.rounds_max, other.rounds_max);
                assert_eq!(json.trace_digest, other.trace_digest);
            }
            assert!(bin.wire_bytes < json.wire_bytes, "{bin:?} vs {json:?}");
            assert_eq!(bin.wire_bytes, typed.wire_bytes);
            assert_eq!(typed.frames_per_sec, 0, "typed rows encode nothing");
        }
    }
}
