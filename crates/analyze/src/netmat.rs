//! The network-substrate matrix: every [`catalogue`](crate::catalogue)
//! entry on `ftcolor-net`.
//!
//! [`net_run`] builds a catalogue entry's instance (the same algorithm,
//! topology and input generator the linter uses, for any seed),
//! executes it on the simulated message-passing network, evaluates the
//! entry's oracle (proper coloring / MIS validity / distinct names), and
//! packages the result as a JSON-serializable summary — the payload
//! behind the `ftcolor netsim` CLI subcommand.
//!
//! There is no race check here: the simulator commits each round in one
//! event, so the `FTC-RT-10x` rules, which look for interleaved lock
//! windows, could never fire on it. Those rules run on the OS-thread
//! runtime's logs (see [`crate::race`]); a network run's round
//! semantics are tested by the entry's oracle and by trace replay.

use ftcolor_model::Topology;
use ftcolor_net::{DeliveryTrace, FaultPlan, NetConfig, NetReport, NetStats};
use serde::Serialize;

use crate::catalogue::lookup;

/// JSON-ready summary of one algorithm's run on the network substrate.
#[derive(Debug, Clone, Serialize)]
pub struct NetSummary {
    /// Registry name (`alg1`, `alg2p`, …).
    pub alg: String,
    /// Instance size.
    pub n: usize,
    /// Seed driving both RNG streams.
    pub seed: u64,
    /// Flat color index per process (`null` = crashed or stalled).
    pub colors: Vec<Option<u64>>,
    /// Which validity oracle applies: `proper-coloring`, `mis`, or
    /// `termination-only` (documented-flaw entries).
    pub oracle: String,
    /// The oracle's verdict over the returned outputs.
    pub valid: bool,
    /// Every returned color within the declared palette.
    pub palette_ok: bool,
    /// Wait-freedom premise: every non-crashed process returned.
    pub all_correct_returned: bool,
    /// Processes that executed a planned crash.
    pub crashed: Vec<usize>,
    /// Processes still working when the run stopped.
    pub stalled: Vec<usize>,
    /// Maximum rounds committed by any process.
    pub rounds_max: u64,
    /// Logical time at which the run stopped.
    pub time: u64,
    /// Message/event counters.
    pub stats: NetStats,
    /// FNV-1a digest of the delivery trace's canonical JSON (hex) —
    /// two runs with the same seed and plan must agree on this.
    pub trace_digest: String,
    /// Number of recorded sends.
    pub trace_len: usize,
    /// Frames serialized to bytes.
    pub wire_frames_encoded: u64,
    /// Frames parsed back from bytes.
    pub wire_frames_decoded: u64,
    /// Total bytes on the wire.
    pub wire_bytes: u64,
    /// Encode-buffer requests served from the pool free list.
    pub wire_pool_hits: u64,
    /// Encode-buffer requests that had to allocate.
    pub wire_pool_misses: u64,
}

/// One network run: the summary plus the raw delivery trace (for
/// `--emit-trace` and replay tooling).
#[derive(Debug, Clone)]
pub struct NetRunOutcome {
    /// The JSON-ready summary.
    pub summary: NetSummary,
    /// The full delivery trace.
    pub trace: DeliveryTrace,
}

/// Runs catalogue entry `name` on the network substrate. Returns `None`
/// for unknown names (see [`crate::SHIPPED`]) and for instances the
/// entry can't build (e.g. `n < 3`).
pub fn net_run(
    name: &str,
    n: usize,
    seed: u64,
    plan: &FaultPlan,
    cfg: &NetConfig,
) -> Option<NetRunOutcome> {
    lookup(name, |name, entry| entry.net(name, n, seed, plan, cfg)).flatten()
}

/// One entry's network run, or `None` when it has no instance of the
/// requested size.
pub(crate) type NetRun = Option<NetRunOutcome>;

/// Which validity notion applies to an entry's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Oracle {
    /// Adjacent returned outputs must differ (distinct names on a
    /// clique are the same statement).
    ProperColoring,
    /// Independence (no two adjacent `In`) plus maximality (every `Out`
    /// whose neighbors all returned has an `In` neighbor).
    Mis,
    /// No validity claim — only termination and palette are reported.
    TerminationOnly,
}

impl Oracle {
    fn name(self) -> &'static str {
        match self {
            Oracle::ProperColoring => "proper-coloring",
            Oracle::Mis => "mis",
            Oracle::TerminationOnly => "termination-only",
        }
    }

    /// Evaluates the oracle over flat colors (for MIS: `In = 0`,
    /// `Out = 1`).
    fn holds(self, topo: &Topology, colors: &[Option<u64>]) -> bool {
        match self {
            Oracle::ProperColoring => topo.is_proper_partial_coloring(colors),
            Oracle::TerminationOnly => true,
            Oracle::Mis => {
                let independent = topo
                    .edges()
                    .all(|(a, b)| !(colors[a.index()] == Some(0) && colors[b.index()] == Some(0)));
                let maximal = topo.nodes().all(|p| {
                    colors[p.index()] != Some(1)
                        || topo
                            .neighbors(p)
                            .iter()
                            .any(|q| colors[q.index()].is_none() || colors[q.index()] == Some(0))
                });
                independent && maximal
            }
        }
    }
}

/// Evaluates one network run of entry `name` on `topo` against its
/// palette and oracle.
pub(crate) fn summarize<O>(
    name: &str,
    seed: u64,
    topo: &Topology,
    report: NetReport<O>,
    color: impl Fn(&O) -> u64,
    palette: u64,
    oracle: Oracle,
) -> NetRunOutcome {
    let colors: Vec<Option<u64>> = report
        .outputs
        .iter()
        .map(|o| o.as_ref().map(&color))
        .collect();
    let palette_ok = colors.iter().flatten().all(|&c| c < palette);
    let valid = oracle.holds(topo, &colors);
    let crashed: Vec<usize> = report.crashed.iter().map(|p| p.index()).collect();
    let stalled: Vec<usize> = report.stalled.iter().map(|p| p.index()).collect();
    let all_correct_returned = colors
        .iter()
        .enumerate()
        .all(|(i, c)| c.is_some() || crashed.contains(&i));
    let summary = NetSummary {
        alg: name.to_string(),
        n: topo.len(),
        seed,
        colors,
        oracle: oracle.name().to_string(),
        valid,
        palette_ok,
        all_correct_returned,
        crashed,
        stalled,
        rounds_max: report.rounds.iter().copied().max().unwrap_or(0),
        time: report.time,
        stats: report.stats,
        trace_digest: format!("{:016x}", report.trace.digest()),
        trace_len: report.trace.len(),
        wire_frames_encoded: report.wire.frames_encoded,
        wire_frames_decoded: report.wire.frames_decoded,
        wire_bytes: report.wire.bytes_on_wire,
        wire_pool_hits: report.wire.pool_hits,
        wire_pool_misses: report.wire.pool_misses,
    };
    NetRunOutcome {
        summary,
        trace: report.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::SHIPPED;

    #[test]
    fn every_registry_entry_runs_on_the_network() {
        for name in SHIPPED {
            let out = net_run(name, 5, 1, &FaultPlan::default(), &NetConfig::new(1))
                .unwrap_or_else(|| panic!("{name} must run on ftcolor-net"));
            let s = &out.summary;
            assert!(s.valid, "{name}: oracle violation on clean network");
            assert!(s.palette_ok, "{name}: palette violation");
            if s.oracle == "termination-only" {
                // The documented E7 flaw (`ImpatientMis`) stalls even on a
                // clean synchronous network: its verdict is computed after
                // the round's write, so it is never published, and
                // lower-identifier neighbors spin on a frozen register.
                // The network substrate reproducing that wait-freedom
                // violation is the point of the exhibit.
                assert!(
                    !s.all_correct_returned,
                    "{name}: the documented E7 stall did not reproduce"
                );
            } else {
                assert!(
                    s.all_correct_returned,
                    "{name}: stalled on a clean network: {:?}",
                    s.stalled
                );
            }
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(net_run("nope", 5, 1, &FaultPlan::default(), &NetConfig::new(1)).is_none());
    }
}
