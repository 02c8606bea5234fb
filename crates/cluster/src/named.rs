//! Registry-name dispatch for the cluster substrate: the payload
//! behind the `ftcolor cluster` CLI subcommand and the cross-substrate
//! harness's fourth leg.
//!
//! [`cluster_run`] looks the name up in the ring-coloring registry
//! ([`ftcolor_core::ring`]: the same algorithms, palettes and input
//! families as the other substrates' matrices), launches a live run
//! via [`crate::run_cluster`], evaluates the proper-coloring oracle
//! over the ring, and packages a JSON-ready [`ClusterSummary`].
//! [`cluster_replay`] is its offline twin: it dispatches on the
//! algorithm name *recorded in the trace* and re-verifies the journal
//! with [`crate::replay_trace`] — no processes spawned, same oracle,
//! same summary shape.

use ftcolor_core::ring::{unknown_ring_coloring, RingColoring};
use ftcolor_core::with_ring_coloring;
use ftcolor_model::SubstrateReport;
use ftcolor_net::{FaultPlan, WireStats};
use serde::Serialize;

use crate::orchestrator::{run_cluster, ClusterOptions, ClusterReport, ClusterStats};
use crate::replay::replay_trace;
use crate::trace::ClusterTrace;

/// JSON-ready summary of one cluster run (live or replayed).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterSummary {
    /// Registry name (`alg1`, `alg2p`, …).
    pub alg: String,
    /// Ring size.
    pub n: usize,
    /// The orchestrator's fault-draw seed.
    pub seed: u64,
    /// Flat color index per node (`null` = crashed or stalled).
    pub colors: Vec<Option<u64>>,
    /// Proper-coloring verdict over the returned outputs.
    pub valid: bool,
    /// Every returned color within the declared palette.
    pub palette_ok: bool,
    /// Wait-freedom premise: every non-crashed node returned.
    pub all_correct_returned: bool,
    /// Nodes SIGKILLed before deciding.
    pub crashed: Vec<usize>,
    /// Live nodes that never decided.
    pub stalled: Vec<usize>,
    /// Whether the orchestrator's wall-clock cap fired (always `false`
    /// for replays — a journal has no clock to run out).
    pub timed_out: bool,
    /// Maximum decide round across nodes.
    pub rounds_max: u64,
    /// Wall-clock duration in milliseconds (0 for replays).
    pub wall_ms: u64,
    /// Router counters (zeroed for replays).
    pub stats: ClusterStats,
    /// Frames the orchestrator encoded onto node stdin pipes.
    pub wire_frames_encoded: u64,
    /// Frames the orchestrator decoded off node stdout pipes.
    pub wire_frames_decoded: u64,
    /// Total bytes across the pipes, newlines included.
    pub wire_bytes: u64,
    /// Encode-buffer requests served from the pool free list.
    pub wire_pool_hits: u64,
    /// Encode-buffer requests that had to allocate.
    pub wire_pool_misses: u64,
    /// Number of journal entries.
    pub trace_len: usize,
    /// FNV-1a digest of the trace's canonical JSON (hex).
    pub trace_digest: String,
}

/// One live cluster run: the summary plus the recorded trace (for
/// `--record` and the golden-fixture flow).
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The JSON-ready summary.
    pub summary: ClusterSummary,
    /// The routed-frame journal plus recorded outcome.
    pub trace: ClusterTrace,
}

/// Runs the ring coloring `name` (one of
/// [`RING_COLORINGS`](ftcolor_core::RING_COLORINGS)) on a live ring of
/// real node processes.
///
/// # Errors
///
/// Returns a message for unknown names, rings smaller than 3, or an
/// orchestration failure.
pub fn cluster_run(
    name: &str,
    n: usize,
    seed: u64,
    plan: &FaultPlan,
    opts: &ClusterOptions,
) -> Result<ClusterOutcome, String> {
    with_ring_coloring!(name, alg => {
        let report = run_cluster(alg, name, &alg.ring_inputs(n, seed), plan, seed, opts)?;
        let summary = summarize(alg, &report.trace, &report, &report.rounds, Some(&report));
        Ok(ClusterOutcome {
            summary,
            trace: report.trace,
        })
    }, else Err(unknown_ring_coloring(name)))
}

/// Re-verifies a recorded trace offline, dispatching on the algorithm
/// name the trace carries.
///
/// # Errors
///
/// Returns the replay divergence message, or a note for traces
/// recorded with an algorithm this build doesn't know.
pub fn cluster_replay(trace: &ClusterTrace) -> Result<ClusterSummary, String> {
    with_ring_coloring!(trace.alg.as_str(), alg => {
        let report = replay_trace(alg, trace)?;
        Ok(summarize(alg, trace, &report, &report.rounds, None))
    }, else Err(format!("replay: trace uses unknown algorithm `{}`", trace.alg)))
}

/// Evaluates the ring proper-coloring oracle over any substrate report
/// and folds it into the summary shape; a replay has no `live` run's
/// clock, router counters or pipes.
fn summarize<A: RingColoring, R: SubstrateReport<A::Output>>(
    alg: &A,
    trace: &ClusterTrace,
    report: &R,
    rounds: &[u64],
    live: Option<&ClusterReport<A::Output>>,
) -> ClusterSummary {
    let (timed_out, wall_ms, stats, wire) = live.map_or(
        (false, 0, ClusterStats::default(), WireStats::default()),
        |r| (r.timed_out, r.wall_ms, r.stats, r.wire),
    );
    let colors: Vec<Option<u64>> = report
        .outputs()
        .iter()
        .map(|o| o.as_ref().map(|o| alg.color(o)))
        .collect();
    let n = colors.len();
    // The ring oracle: decided neighbors must differ (mod-n adjacency).
    let valid = (0..n).all(|i| {
        let j = (i + 1) % n;
        match (&colors[i], &colors[j]) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    });
    let palette_ok = colors.iter().flatten().all(|&c| c < alg.palette());
    let crashed: Vec<usize> = report.crashed_ids().iter().map(|p| p.index()).collect();
    let stalled: Vec<usize> = (0..n)
        .filter(|&i| colors[i].is_none() && !crashed.contains(&i))
        .collect();
    ClusterSummary {
        alg: alg.name().to_string(),
        n,
        seed: trace.seed,
        valid,
        palette_ok,
        all_correct_returned: report.all_correct_returned(),
        colors,
        crashed,
        stalled,
        timed_out,
        rounds_max: rounds.iter().copied().max().unwrap_or(0),
        wall_ms,
        stats,
        wire_frames_encoded: wire.frames_encoded,
        wire_frames_decoded: wire.frames_decoded,
        wire_bytes: wire.bytes_on_wire,
        wire_pool_hits: wire.pool_hits,
        wire_pool_misses: wire.pool_misses,
        trace_len: trace.len(),
        trace_digest: format!("{:016x}", trace.digest()),
    }
}
