//! Recorded, serializable, replayable schedules.
//!
//! A [`Trace`] is the schedule component of an execution: the exact
//! sequence of resolved activation sets. Because the model is
//! deterministic given (algorithm, topology, inputs, schedule), replaying
//! a trace reproduces the execution bit-for-bit — the foundation for
//! debugging adversarial counterexamples found by the model checker and
//! for persisting interesting executions as JSON.

use crate::algorithm::Algorithm;
use crate::executor::Execution;
use crate::graph::Topology;
use crate::ids::ProcessId;
use crate::ids::Time;
use crate::schedule::{ActivationSet, FixedSequence, Schedule};
use serde::{Deserialize, Serialize};

/// A finite recorded schedule over `n` processes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    n: usize,
    steps: Vec<ActivationSet>,
}

impl Trace {
    /// Wraps a recorded list of activation sets for `n` processes.
    pub fn new(n: usize, steps: Vec<ActivationSet>) -> Self {
        Trace { n, steps }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the empty trace.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded activation sets.
    pub fn steps(&self) -> &[ActivationSet] {
        &self.steps
    }

    /// Consumes the trace, yielding its activation sets.
    pub fn into_steps(self) -> Vec<ActivationSet> {
        self.steps
    }

    /// Replays `sets` on a fresh execution of `alg` and records the
    /// *resolved* activation sets — the canonical form of a schedule:
    /// every step an explicit sorted [`ActivationSet::Only`] listing
    /// exactly the processes the executor activated (symbolic `All`
    /// steps materialized, returned/absent processes filtered out).
    /// Replaying the result reproduces the same execution
    /// configuration-for-configuration; the counterexample shrinker
    /// normalizes witnesses through this before minimizing them.
    pub fn recorded_from<A: Algorithm>(
        alg: &A,
        topo: &Topology,
        inputs: Vec<A::Input>,
        sets: &[ActivationSet],
    ) -> Trace {
        let mut exec = Execution::new(alg, topo, inputs);
        exec.record_trace(true);
        for set in sets {
            exec.step_with(set);
        }
        exec.into_trace()
    }

    /// Converts the trace into a schedule that replays it exactly and
    /// then ends (crashing any process still working — faithfully
    /// reproducing crashes present in the original execution).
    pub fn replay(&self) -> FixedSequence {
        FixedSequence::new(self.steps.clone())
    }

    /// How many times `p` is activated in the trace (counting `All` steps;
    /// replayed activations of already-returned processes are ignored by
    /// the executor, so this is an upper bound on realized activations).
    pub fn activation_upper_bound(&self, p: ProcessId) -> usize {
        self.steps
            .iter()
            .filter(|s| match s {
                ActivationSet::All => true,
                ActivationSet::Only(v) => v.binary_search(&p).is_ok(),
            })
            .count()
    }
}

impl Schedule for Trace {
    fn next(&mut self, t: Time, _working: &[ProcessId]) -> Option<ActivationSet> {
        // Time starts at 1 for the first step.
        self.steps.get((t - 1) as usize).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            3,
            vec![
                ActivationSet::of([ProcessId(0), ProcessId(2)]),
                ActivationSet::All,
                ActivationSet::of([ProcessId(1)]),
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.activation_upper_bound(ProcessId(0)), 2);
        assert_eq!(t.activation_upper_bound(ProcessId(1)), 2);
        assert_eq!(t.activation_upper_bound(ProcessId(2)), 2);
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn replay_matches_steps() {
        let t = sample();
        let mut s = t.replay();
        let working: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        for (i, expect) in t.steps().iter().enumerate() {
            assert_eq!(s.next(i as u64 + 1, &working).as_ref(), Some(expect));
        }
        assert_eq!(s.next(4, &working), None);
    }
}
