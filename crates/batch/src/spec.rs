//! Instance specifications — what one batched ring run *is*, and the
//! single place both the batch engine and the sequential oracle build
//! their schedules from.
//!
//! Bit-identity between the two paths is a construction property, not a
//! testing accident: [`InstanceSpec::schedule`] is the only schedule
//! factory, so the batch engine and [`InstanceSpec::run_sequential`]
//! drive byte-for-byte the same `CrashPlan`/`RandomSubset` state through
//! the same `(time, working)` call sequence.

use ftcolor_model::schedule::{ActivationSet, CrashPlan, RandomSubset, Synchronous};
use ftcolor_model::{
    Algorithm, Execution, ExecutionReport, ModelError, ProcessId, Schedule, Time, Topology,
};
use std::hash::Hash;

/// Which oblivious schedule drives one instance.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleKind {
    /// Lock-step: every working process is activated at every step (the
    /// O(log* n) regime of Algorithm 3).
    Synchronous,
    /// Seeded per-process coin flips with inclusion probability `p` —
    /// the honest asynchronous adversary for service workloads.
    Random {
        /// Seed of the per-instance activation stream.
        seed: u64,
        /// Per-process inclusion probability (clamped by the schedule).
        p: f64,
    },
}

/// One batched instance: a ring `C_n` with identifiers `ids`, an
/// oblivious schedule, optional crash times, and a fuel bound.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Ring identifiers (distinct, one per process).
    pub ids: Vec<u64>,
    /// The activation schedule.
    pub sched: ScheduleKind,
    /// Crash overlay: process `p` is never activated at time `t ≥ T`.
    pub crashes: Vec<(ProcessId, Time)>,
    /// Time-step budget, after which a still-working instance counts as
    /// stalled (the batch rendering of `ModelError::NonTermination`).
    pub fuel: u64,
}

impl InstanceSpec {
    /// A clean synchronous instance.
    pub fn synchronous(ids: Vec<u64>, fuel: u64) -> Self {
        InstanceSpec {
            ids,
            sched: ScheduleKind::Synchronous,
            crashes: Vec::new(),
            fuel,
        }
    }

    /// A seeded random-subset instance.
    pub fn random(ids: Vec<u64>, seed: u64, p: f64, fuel: u64) -> Self {
        InstanceSpec {
            ids,
            sched: ScheduleKind::Random { seed, p },
            crashes: Vec::new(),
            fuel,
        }
    }

    /// Adds a crash overlay entry.
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, at: Time) -> Self {
        self.crashes.push((p, at));
        self
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Builds the instance's schedule. Every consumer — the batch
    /// engine's per-instance control block and the sequential oracle —
    /// must construct schedules through this method, so the two paths
    /// share one RNG stream and one crash overlay by construction.
    pub fn schedule(&self) -> BatchSchedule {
        let crashes = self.crashes.iter().copied();
        match self.sched {
            ScheduleKind::Synchronous => {
                BatchSchedule::Sync(CrashPlan::new(Synchronous::new(), crashes))
            }
            ScheduleKind::Random { seed, p } => {
                BatchSchedule::Random(CrashPlan::new(RandomSubset::new(seed, p), crashes))
            }
        }
    }

    /// Runs this instance on the plain sequential [`Execution`] path —
    /// the oracle the batch engine is pinned against.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonTermination`] when `fuel` runs out with
    /// processes still working (the batch engine reports the same
    /// instance as *stalled*).
    ///
    /// # Panics
    ///
    /// Panics if `ids` has fewer than three entries (no such cycle).
    pub fn run_sequential<A>(&self, alg: &A) -> Result<ExecutionReport<A::Output>, ModelError>
    where
        A: Algorithm<Input = u64>,
        A::State: Eq + Hash,
        A::Reg: Eq + Hash,
        A::Output: Eq + Hash,
    {
        let topo = Topology::cycle(self.n()).expect("InstanceSpec needs a ring of size >= 3");
        let mut exec = Execution::new(alg, &topo, self.ids.clone());
        exec.run(self.schedule(), self.fuel)
    }
}

/// The concrete schedule of one batched instance: the real model
/// schedule structs (not re-implementations), stored per instance so
/// the engine can feed them the exact `(time, working)` sequence the
/// sequential executor would.
#[derive(Debug, Clone)]
pub enum BatchSchedule {
    /// Lock-step under a crash overlay.
    Sync(CrashPlan<Synchronous>),
    /// Seeded coin flips under a crash overlay.
    Random(CrashPlan<RandomSubset>),
}

impl Schedule for BatchSchedule {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        match self {
            BatchSchedule::Sync(s) => s.next(t, working),
            BatchSchedule::Random(s) => s.next(t, working),
        }
    }

    fn next_into(&mut self, t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        match self {
            BatchSchedule::Sync(s) => s.next_into(t, working, out),
            BatchSchedule::Random(s) => s.next_into(t, working, out),
        }
    }
}

impl BatchSchedule {
    /// The crash overlay entries of this schedule.
    pub fn crashes(&self) -> Vec<(ProcessId, Time)> {
        match self {
            BatchSchedule::Sync(s) => s.crashes().collect(),
            BatchSchedule::Random(s) => s.crashes().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_streams_are_reproducible() {
        let spec =
            InstanceSpec::random(vec![4, 9, 1, 7], 33, 0.5, 1000).with_crash(ProcessId(2), 5);
        let working: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let mut a = spec.schedule();
        let mut b = spec.schedule();
        for t in 1..=20 {
            assert_eq!(a.next(t, &working), b.next(t, &working), "time {t}");
        }
    }

    #[test]
    fn crash_overlay_is_preserved() {
        let spec = InstanceSpec::synchronous(vec![1, 2, 3], 100).with_crash(ProcessId(1), 4);
        assert_eq!(spec.schedule().crashes(), vec![(ProcessId(1), 4)]);
    }
}
