//! Counterexample shrinking: delta-debugging witness schedules.
//!
//! The model checker and the fuzzer emit *witness schedules* — recorded
//! activation-set sequences that drive an execution into a safety
//! violation, a livelock, or past a proven activation bound. Raw
//! adversary output is long and noisy; the standard way such witnesses
//! become legible is minimization (cf. proptest-style shrinking, and the
//! asynchronous-LOCAL literature's habit of reasoning from *shortest*
//! bad executions).
//!
//! [`Shrinker`] searches for a **locally minimal** schedule: one where
//!
//! * removing any single whole step,
//! * removing any single process activation from any step,
//! * crashing any process earlier (dropping all its activations from
//!   some step onward), or
//! * truncating the tail
//!
//! no longer reproduces the failure. The search is a deterministic
//! delta-debugging loop: candidate schedules are generated in a fixed
//! order, replayed through the existing executor, and the *first*
//! reproducing candidate is applied; the loop repeats until no candidate
//! reproduces. Candidates replay on the calling thread: a witness replay
//! takes microseconds, and worker threads made `ftcolor shrink` slower on
//! every committed fixture (EXPERIMENTS §E12).
//!
//! Three violation classes are supported, mirroring what the checker and
//! fuzzer report:
//!
//! * [`Shrinker::shrink_safety`] — a safety predicate fires on the
//!   partial outputs after the schedule ends (crashing every process
//!   still working, as in [`crate::modelcheck`]);
//! * [`Shrinker::shrink_livelock`] — replaying the witness cycle returns
//!   the execution to the same configuration with at least one process
//!   activated, i.e. a genuine starvation loop;
//! * [`Shrinker::shrink_overrun`] — some process performs strictly more
//!   activations than a claimed bound.

use crate::modelcheck::{LivelockWitness, SafetyViolation};
use ftcolor_model::encode::ConfigCodec;
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::{Algorithm, Execution, ProcessId, Topology, Trace};
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// Either kind of replayable counterexample the checker reports, as one
/// serializable sum — the payload of a [`WitnessFixture`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Witness {
    /// A safety violation: schedule to a bad configuration.
    Safety(SafetyViolation),
    /// A livelock: prefix to a cycle plus the cycle itself.
    Livelock(LivelockWitness),
}

impl Witness {
    /// Total number of (process, step) activation slots in the witness
    /// (the size the shrinker minimizes), with symbolic `All` steps
    /// counted as `n`.
    pub fn slots(&self, n: usize) -> usize {
        match self {
            Witness::Safety(v) => slot_count(&v.schedule, n),
            Witness::Livelock(lw) => slot_count(&lw.prefix, n) + slot_count(&lw.cycle, n),
        }
    }
}

/// The on-disk format of a shrink-aware witness: which algorithm and
/// identifiers it runs on, the raw adversary output, and its shrunk
/// (locally minimal) form. Both forms replay to the same violation
/// class. This is what `ftcolor shrink` reads and writes and what the
/// golden fixtures under `tests/fixtures/` store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessFixture {
    /// Self-description of the schema (see [`WITNESS_SCHEMA`]).
    pub schema: String,
    /// Algorithm name in the CLI's vocabulary (`alg1`, `alg2`, `alg2p`,
    /// `alg3`, `alg3p`, `eagermis`).
    pub alg: String,
    /// Per-process input identifiers, in process order.
    pub ids: Vec<u64>,
    /// The witness exactly as the checker/fuzzer reported it.
    pub raw: Witness,
    /// The delta-debugged locally-minimal witness.
    pub shrunk: Witness,
}

/// The schema line stamped into every [`WitnessFixture`].
pub const WITNESS_SCHEMA: &str = "ftcolor-witness/2: {schema, alg, ids, raw, shrunk}; \
raw/shrunk are {Safety: {description, schedule}} or {Livelock: {prefix, cycle}}; \
schedules are lists of activation sets ({Only: [pids]} or \"All\")";

/// Deterministic accounting of one shrink run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate replays run: per batch, the candidates up to and
    /// including the first reproducing one, or the whole batch.
    pub replays: u64,
    /// Activation slots in the witness before shrinking.
    pub original_slots: usize,
    /// Activation slots in the locally minimal witness.
    pub shrunk_slots: usize,
}

/// A shrunk schedule-shaped witness (safety or bound overrun).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkSchedule {
    /// The locally minimal schedule.
    pub schedule: Vec<ActivationSet>,
    /// What the violation predicate says about the shrunk replay (for
    /// safety witnesses; `None` for bound overruns).
    pub description: Option<String>,
    /// Shrink accounting.
    pub stats: ShrinkStats,
}

/// A shrunk livelock witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkLivelock {
    /// The locally minimal witness (prefix to the cycle, and the cycle).
    pub witness: LivelockWitness,
    /// Shrink accounting.
    pub stats: ShrinkStats,
}

/// Total (process, step) activation slots of a schedule; `All` counts as
/// `n`.
fn slot_count(sets: &[ActivationSet], n: usize) -> usize {
    sets.iter()
        .map(|s| match s {
            ActivationSet::All => n,
            ActivationSet::Only(v) => v.len(),
        })
        .sum()
}

/// Delta-debugging shrinker for witnesses of `alg` on `topo` with
/// `inputs`.
///
/// ```
/// use ftcolor_checker::{ModelChecker, Shrinker};
/// use ftcolor_core::mis::{mis_violation, EagerMis};
/// use ftcolor_model::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::cycle(4)?;
/// let ids = vec![5, 9, 2, 1];
/// let outcome = ModelChecker::new(&EagerMis, &topo, ids.clone()).explore(mis_violation)?;
/// let raw = outcome.safety_violation.expect("the In/In violation");
/// let shrunk = Shrinker::new(&EagerMis, &topo, ids)
///     .shrink_safety(&raw.schedule, &mis_violation)
///     .expect("the raw witness reproduces");
/// assert!(shrunk.stats.shrunk_slots <= shrunk.stats.original_slots);
/// # Ok(())
/// # }
/// ```
pub struct Shrinker<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
}

impl<'a, A: Algorithm> Shrinker<'a, A>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
    A::Input: Clone,
{
    /// Creates a shrinker for `alg` on `topo` with `inputs`.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>) -> Self {
        Shrinker { alg, topo, inputs }
    }

    // ------------------------------------------------------------ replays

    fn fresh(&self) -> Execution<'a, A> {
        Execution::new(self.alg, self.topo, self.inputs.clone())
    }

    /// Replays `sched` to its end (crashing everyone there) and applies
    /// the safety predicate to the partial outputs.
    fn replay_safety(
        &self,
        sched: &[ActivationSet],
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> Option<String> {
        let mut exec = self.fresh();
        for set in sched {
            if exec.all_returned() {
                break;
            }
            exec.step_with(set);
        }
        safety(self.topo, exec.outputs())
    }

    /// Replays `sched` and reports the maximum per-process activation
    /// count.
    fn replay_max_activations(&self, sched: &[ActivationSet]) -> u64 {
        let mut exec = self.fresh();
        for set in sched {
            if exec.all_returned() {
                break;
            }
            exec.step_with(set);
        }
        self.topo
            .nodes()
            .map(|p| exec.activation_count(p))
            .max()
            .unwrap_or(0)
    }

    /// `true` when (prefix, cycle) is a genuine livelock: after the
    /// prefix some process is still working, and replaying the cycle
    /// once activates at least one process and returns the execution to
    /// the exact same configuration.
    fn replay_livelock(&self, prefix: &[ActivationSet], cycle: &[ActivationSet]) -> bool {
        if cycle.is_empty() {
            return false;
        }
        let mut exec = self.fresh();
        for set in prefix {
            exec.step_with(set);
        }
        if exec.all_returned() {
            return false;
        }
        // Compare packed configuration keys — the same exact-equality
        // encoding the checker dedups on (hashes never decide equality).
        let codec: ConfigCodec<A> = ConfigCodec::new(self.topo.len());
        let entry = codec.encode(&exec);
        let mut activated = false;
        for set in cycle {
            activated |= !exec.step_with(set).is_empty();
        }
        activated && codec.encode(&exec) == entry
    }

    // ------------------------------------------------------ normalization

    /// Canonicalizes a schedule into resolved, non-empty `Only` sets by
    /// replaying it (see [`Trace::recorded_from`]); the execution it
    /// drives is unchanged.
    fn normalize(&self, sched: &[ActivationSet]) -> Vec<ActivationSet> {
        Trace::recorded_from(self.alg, self.topo, self.inputs.clone(), sched)
            .into_steps()
            .into_iter()
            .filter(|s| !matches!(s, ActivationSet::Only(v) if v.is_empty()))
            .collect()
    }

    /// Canonicalizes a livelock cycle: replays the prefix, then records
    /// the resolved cycle steps.
    fn normalize_cycle(
        &self,
        prefix: &[ActivationSet],
        cycle: &[ActivationSet],
    ) -> Vec<ActivationSet> {
        let mut exec = self.fresh();
        for set in prefix {
            exec.step_with(set);
        }
        exec.record_trace(true);
        for set in cycle {
            exec.step_with(set);
        }
        exec.recorded()
            .iter()
            .filter(|s| !matches!(s, ActivationSet::Only(v) if v.is_empty()))
            .cloned()
            .collect()
    }

    // ------------------------------------------------------- shrink passes

    /// Classic ddmin over whole steps: remove chunks of decreasing size
    /// while the failure reproduces.
    fn pass_ddmin(
        &self,
        list: &mut Vec<ActivationSet>,
        repro: &impl Fn(&[ActivationSet]) -> bool,
        replays: &mut u64,
    ) -> bool {
        let mut changed = false;
        let mut granularity = 2usize;
        while list.len() >= 2 {
            let chunk = list.len().div_ceil(granularity);
            let candidates: Vec<Vec<ActivationSet>> = (0..granularity)
                .filter_map(|i| {
                    let lo = i * chunk;
                    let hi = ((i + 1) * chunk).min(list.len());
                    (lo < hi).then(|| {
                        let mut cand = list.clone();
                        cand.drain(lo..hi);
                        cand
                    })
                })
                .collect();
            let (hit, charged) = first_reproducing(&candidates, repro);
            *replays += charged;
            match hit {
                Some(i) => {
                    *list = candidates.into_iter().nth(i).expect("index in range");
                    changed = true;
                    granularity = granularity.saturating_sub(1).max(2);
                }
                None if chunk == 1 => break,
                None => granularity = (granularity * 2).min(list.len()),
            }
        }
        changed
    }

    /// Removes single (step, process) activation slots one at a time
    /// until none can go; empties collapse into step removal.
    fn pass_single_slots(
        &self,
        list: &mut Vec<ActivationSet>,
        repro: &impl Fn(&[ActivationSet]) -> bool,
        replays: &mut u64,
    ) -> bool {
        let mut changed = false;
        loop {
            let candidates = single_slot_removals(list);
            let (hit, charged) = first_reproducing(&candidates, repro);
            *replays += charged;
            match hit {
                Some(i) => {
                    *list = candidates.into_iter().nth(i).expect("index in range");
                    changed = true;
                }
                None => return changed,
            }
        }
    }

    /// Crash-earlier: for each process, try dropping all its activations
    /// from some step onward (earliest cut — the most aggressive crash —
    /// first).
    fn pass_crash_earlier(
        &self,
        list: &mut Vec<ActivationSet>,
        repro: &impl Fn(&[ActivationSet]) -> bool,
        replays: &mut u64,
    ) -> bool {
        let mut changed = false;
        loop {
            let candidates = crash_earlier_candidates(list, self.topo.len());
            let (hit, charged) = first_reproducing(&candidates, repro);
            *replays += charged;
            match hit {
                Some(i) => {
                    *list = candidates.into_iter().nth(i).expect("index in range");
                    changed = true;
                }
                None => return changed,
            }
        }
    }

    /// Runs all passes to a fixpoint: at exit no whole-step removal, no
    /// single-activation removal, and (when enabled) no earlier crash
    /// reproduces — the local-minimality contract.
    fn shrink_part(
        &self,
        mut list: Vec<ActivationSet>,
        repro: &impl Fn(&[ActivationSet]) -> bool,
        crash_op: bool,
        replays: &mut u64,
    ) -> Vec<ActivationSet> {
        loop {
            let mut changed = self.pass_ddmin(&mut list, repro, replays);
            changed |= self.pass_single_slots(&mut list, repro, replays);
            if crash_op {
                changed |= self.pass_crash_earlier(&mut list, repro, replays);
            }
            if !changed {
                return list;
            }
        }
    }

    // --------------------------------------------------------- public API

    /// Shrinks a safety-violation witness: the predicate must fire on
    /// the partial outputs after the candidate schedule ends. Returns
    /// `None` when the input schedule does not reproduce any violation.
    pub fn shrink_safety(
        &self,
        schedule: &[ActivationSet],
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> Option<ShrunkSchedule> {
        self.replay_safety(schedule, safety)?;
        let repro = |cand: &[ActivationSet]| self.replay_safety(cand, safety).is_some();
        self.shrink_schedule_class(schedule, &repro, safety)
    }

    /// Shrinks a bound-overrun witness: some process must perform
    /// strictly more than `bound` activations under the candidate
    /// schedule. Returns `None` when the input schedule never overruns.
    pub fn shrink_overrun(&self, schedule: &[ActivationSet], bound: u64) -> Option<ShrunkSchedule> {
        if self.replay_max_activations(schedule) <= bound {
            return None;
        }
        let repro = |cand: &[ActivationSet]| self.replay_max_activations(cand) > bound;
        self.shrink_schedule_class(
            schedule,
            &repro,
            &|_: &Topology, _: &[Option<A::Output>]| None,
        )
    }

    fn shrink_schedule_class(
        &self,
        schedule: &[ActivationSet],
        repro: &impl Fn(&[ActivationSet]) -> bool,
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> Option<ShrunkSchedule> {
        let n = self.topo.len();
        let original_slots = slot_count(schedule, n);
        let mut replays = 0u64;
        let normalized = self.normalize(schedule);
        // Normalization preserves the execution, but fall back to the
        // raw schedule if it somehow stopped reproducing.
        let start = if repro(&normalized) {
            normalized
        } else {
            schedule.to_vec()
        };
        replays += 1;
        let shrunk = self.shrink_part(start, repro, true, &mut replays);
        let description = self.replay_safety(&shrunk, safety);
        Some(ShrunkSchedule {
            stats: ShrinkStats {
                replays,
                original_slots,
                shrunk_slots: slot_count(&shrunk, n),
            },
            description,
            schedule: shrunk,
        })
    }

    /// Shrinks a livelock witness: the candidate cycle, replayed once
    /// after the candidate prefix, must activate at least one process
    /// and return the execution to the same configuration (with some
    /// process still working). Returns `None` when the input witness is
    /// not a livelock.
    pub fn shrink_livelock(&self, witness: &LivelockWitness) -> Option<ShrunkLivelock> {
        let n = self.topo.len();
        if !self.replay_livelock(&witness.prefix, &witness.cycle) {
            return None;
        }
        let original_slots = slot_count(&witness.prefix, n) + slot_count(&witness.cycle, n);
        let mut replays = 1u64;
        let mut prefix = self.normalize(&witness.prefix);
        let mut cycle = self.normalize_cycle(&prefix, &witness.cycle);
        if !self.replay_livelock(&prefix, &cycle) {
            prefix = witness.prefix.clone();
            cycle = witness.cycle.clone();
        }
        replays += 1;
        // Alternate shrinking the cycle (with the prefix pinned) and the
        // prefix (with the cycle pinned) until both are stable. The
        // crash-earlier op only applies to the prefix: the cycle repeats
        // forever, so "crashing inside it" has no meaning.
        loop {
            let before = slot_count(&prefix, n) + slot_count(&cycle, n);
            let pinned_prefix = prefix.clone();
            cycle = self.shrink_part(
                cycle,
                &|cand: &[ActivationSet]| self.replay_livelock(&pinned_prefix, cand),
                false,
                &mut replays,
            );
            let pinned_cycle = cycle.clone();
            prefix = self.shrink_part(
                prefix,
                &|cand: &[ActivationSet]| self.replay_livelock(cand, &pinned_cycle),
                true,
                &mut replays,
            );
            // Each accepted candidate strictly reduces the slot count, so
            // this loop terminates; an unchanged count means both parts
            // reached their fixpoints against each other's final form.
            if slot_count(&prefix, n) + slot_count(&cycle, n) == before {
                break;
            }
        }
        let shrunk_slots = slot_count(&prefix, n) + slot_count(&cycle, n);
        Some(ShrunkLivelock {
            witness: LivelockWitness { prefix, cycle },
            stats: ShrinkStats {
                replays,
                original_slots,
                shrunk_slots,
            },
        })
    }

    /// `true` when `witness` replays to its violation class on this
    /// shrinker's instance — the check `ftcolor shrink` and the golden
    /// tests run on both the raw and the shrunk form of every fixture.
    pub fn reproduces(
        &self,
        witness: &Witness,
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> bool {
        match witness {
            Witness::Safety(v) => self.replay_safety(&v.schedule, safety).is_some(),
            Witness::Livelock(lw) => self.replay_livelock(&lw.prefix, &lw.cycle),
        }
    }

    /// Shrinks either witness kind, preserving its class.
    pub fn shrink_witness(
        &self,
        witness: &Witness,
        safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    ) -> Option<(Witness, ShrinkStats)> {
        match witness {
            Witness::Safety(v) => self.shrink_safety(&v.schedule, safety).map(|s| {
                (
                    Witness::Safety(SafetyViolation {
                        description: s.description.unwrap_or_else(|| v.description.clone()),
                        schedule: s.schedule,
                    }),
                    s.stats,
                )
            }),
            Witness::Livelock(lw) => self
                .shrink_livelock(lw)
                .map(|s| (Witness::Livelock(s.witness), s.stats)),
        }
    }
}

/// Finds the lowest-index candidate that reproduces. Returns the index
/// plus the replays run: index + 1 on a hit, the whole batch on a miss.
fn first_reproducing(
    candidates: &[Vec<ActivationSet>],
    repro: &impl Fn(&[ActivationSet]) -> bool,
) -> (Option<usize>, u64) {
    match candidates.iter().position(|c| repro(c)) {
        Some(i) => (Some(i), i as u64 + 1),
        None => (None, candidates.len() as u64),
    }
}

/// All single-activation-removal candidates of `list`, in (step, slot)
/// order; a step emptied by the removal is dropped entirely. Symbolic
/// `All` steps are skipped (normalization has already materialized them
/// whenever the shrinker generates candidates).
fn single_slot_removals(list: &[ActivationSet]) -> Vec<Vec<ActivationSet>> {
    let mut candidates = Vec::new();
    for (si, set) in list.iter().enumerate() {
        let ActivationSet::Only(v) = set else {
            continue;
        };
        for j in 0..v.len() {
            let mut cand = list.to_vec();
            let mut nv = v.clone();
            nv.remove(j);
            if nv.is_empty() {
                cand.remove(si);
            } else {
                cand[si] = ActivationSet::Only(nv);
            }
            candidates.push(cand);
        }
    }
    candidates
}

/// All crash-earlier candidates: for each process in id order, for each
/// of its activation steps from earliest to latest, the schedule with
/// every activation of that process at or after the cut removed (and
/// emptied steps dropped).
fn crash_earlier_candidates(list: &[ActivationSet], n: usize) -> Vec<Vec<ActivationSet>> {
    let mut candidates = Vec::new();
    for p in (0..n).map(ProcessId) {
        let steps_with_p: Vec<usize> = list
            .iter()
            .enumerate()
            .filter(|(_, s)| s.activates(p))
            .map(|(i, _)| i)
            .collect();
        for &cut in &steps_with_p {
            let cand: Vec<ActivationSet> = list
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    if i < cut || !s.activates(p) {
                        return Some(s.clone());
                    }
                    match s {
                        ActivationSet::All => {
                            Some(ActivationSet::of((0..n).map(ProcessId).filter(|&q| q != p)))
                        }
                        ActivationSet::Only(v) => {
                            let nv: Vec<ProcessId> =
                                v.iter().copied().filter(|&q| q != p).collect();
                            (!nv.is_empty()).then_some(ActivationSet::Only(nv))
                        }
                    }
                })
                .collect();
            if cand != list {
                candidates.push(cand);
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelChecker;
    use ftcolor_core::mis::{mis_violation, EagerMis};
    use ftcolor_core::{ring_safety, FiveColoring};

    #[test]
    fn shrinks_the_eager_mis_witness_and_it_still_reproduces() {
        let topo = Topology::cycle(4).unwrap();
        let ids = vec![5u64, 9, 2, 1];
        let raw = ModelChecker::new(&EagerMis, &topo, ids.clone())
            .explore(mis_violation)
            .unwrap()
            .safety_violation
            .expect("violation");
        let sh = Shrinker::new(&EagerMis, &topo, ids.clone());
        let out = sh.shrink_safety(&raw.schedule, &mis_violation).unwrap();
        assert!(out.stats.shrunk_slots <= out.stats.original_slots);
        assert!(out.description.is_some(), "shrunk replay still violates");
        // Replay check through a fresh execution.
        let mut exec = Execution::new(&EagerMis, &topo, ids);
        for set in &out.schedule {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());
    }

    #[test]
    fn shrinks_the_alg2_livelock_strictly() {
        let topo = Topology::cycle(3).unwrap();
        let raw = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
            .explore(ring_safety(&FiveColoring))
            .unwrap()
            .livelock
            .expect("livelock");
        let sh = Shrinker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        let out = sh.shrink_livelock(&raw).unwrap();
        assert!(
            out.stats.shrunk_slots < out.stats.original_slots,
            "livelock witness must shrink strictly: {} -> {}",
            out.stats.original_slots,
            out.stats.shrunk_slots
        );
        assert!(sh.replay_livelock(&out.witness.prefix, &out.witness.cycle));
    }

    #[test]
    fn non_reproducing_inputs_yield_none() {
        let topo = Topology::cycle(3).unwrap();
        let sh = Shrinker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        assert!(sh
            .shrink_safety(&[ActivationSet::All], &ring_safety(&FiveColoring))
            .is_none());
        assert!(sh.shrink_overrun(&[ActivationSet::All], 10).is_none());
        let not_a_livelock = LivelockWitness {
            prefix: vec![],
            cycle: vec![ActivationSet::All],
        };
        assert!(sh.shrink_livelock(&not_a_livelock).is_none());
    }

    #[test]
    fn overrun_shrinks_to_the_bound_boundary() {
        // Synchronous steps: every step activates all 3 processes, so
        // max activations == number of steps until all return. Shrinking
        // with bound b keeps just enough steps to exceed b.
        let topo = Topology::cycle(3).unwrap();
        let sched = vec![ActivationSet::All; 6];
        let sh = Shrinker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        let out = sh.shrink_overrun(&sched, 2).unwrap();
        assert!(sh.replay_max_activations(&out.schedule) > 2);
        // Local minimality: dropping any single activation breaks it.
        for cand in single_slot_removals(&out.schedule) {
            assert!(sh.replay_max_activations(&cand) <= 2, "not locally minimal");
        }
    }

    #[test]
    fn witness_fixture_round_trips_through_json() {
        let fx = WitnessFixture {
            schema: WITNESS_SCHEMA.to_string(),
            alg: "alg2".into(),
            ids: vec![0, 1, 2],
            raw: Witness::Livelock(LivelockWitness {
                prefix: vec![ActivationSet::solo(ProcessId(0))],
                cycle: vec![ActivationSet::of([ProcessId(1), ProcessId(2)])],
            }),
            shrunk: Witness::Safety(SafetyViolation {
                description: "demo".into(),
                schedule: vec![ActivationSet::All],
            }),
        };
        let json = serde_json::to_string(&fx).unwrap();
        let back: WitnessFixture = serde_json::from_str(&json).unwrap();
        assert_eq!(fx, back);
    }
}
