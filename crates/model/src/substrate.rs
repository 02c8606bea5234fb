//! The substrate-report abstraction: one oracle surface for every
//! implementation of the state model.
//!
//! The paper's theorems are substrate-agnostic — they hold for *any*
//! implementation of SWMR registers and local immediate snapshots. The
//! reproduction has four such substrates (the abstract executor here,
//! the OS-thread runtime in `ftcolor-runtime`, the simulated
//! message-passing network in `ftcolor-net`, and the cluster of OS
//! processes in `ftcolor-cluster`, live or replayed from its journal),
//! each with its own report type. [`SubstrateReport`] is the common denominator the
//! cross-substrate conformance oracles consume: who produced an output,
//! and who crashed. Everything the oracles check — proper coloring,
//! palette bounds, termination of correct processes — derives from
//! these two views, so one oracle closure runs unchanged over all
//! substrates.

use crate::executor::ExecutionReport;
use crate::ids::ProcessId;

/// What every substrate's run report can answer.
pub trait SubstrateReport<O> {
    /// Per-process outputs, indexed by process id (`None` = no output:
    /// crashed, stalled, or capped).
    fn outputs(&self) -> &[Option<O>];

    /// Processes that crashed during the run.
    fn crashed_ids(&self) -> &[ProcessId];

    /// The wait-freedom oracle's premise: every process that did *not*
    /// crash produced an output. Substrates with additional ways to
    /// withhold an output (round caps, network stalls) override this
    /// only if those states should count as failures — by default any
    /// non-crashed process without an output fails the check.
    fn all_correct_returned(&self) -> bool {
        let crashed = self.crashed_ids();
        self.outputs()
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() || crashed.contains(&ProcessId(i)))
    }
}

impl<O> SubstrateReport<O> for ExecutionReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_returned_accounts_for_crashes() {
        let report = ExecutionReport {
            outputs: vec![Some(1u64), None, Some(3)],
            activations: vec![2, 1, 2],
            time_steps: 4,
            crashed: vec![ProcessId(1)],
        };
        assert!(SubstrateReport::all_correct_returned(&report));

        let bad = ExecutionReport {
            outputs: vec![Some(1u64), None, Some(3)],
            activations: vec![2, 1, 2],
            time_steps: 4,
            crashed: vec![],
        };
        assert!(!SubstrateReport::all_correct_returned(&bad));
    }
}
