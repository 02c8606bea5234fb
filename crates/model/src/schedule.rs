//! Schedules — the asynchronous adversary.
//!
//! An execution is determined by the algorithm, the topology, the inputs,
//! and the *schedule* `σ = σ(1), σ(2), …` assigning to each time step the
//! set of processes activated at that step (§2.2). The executor only ever
//! activates *working* processes (those that have not returned), matching
//! the paper's restricted schedule `σ̄`.
//!
//! A schedule ends (returns `None`) to model **crashes**: every process
//! still working at that point is never activated again. [`CrashPlan`]
//! composes crash times onto any inner schedule.
//!
//! All randomized schedules are seeded ([`rand::rngs::StdRng`]) and thus
//! fully reproducible.

use crate::ids::{ProcessId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The set of processes activated at one time step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationSet {
    /// Every currently-working process — the synchronous step. Kept
    /// symbolic so that large-`n` synchronous executions never materialize
    /// `n`-element vectors.
    All,
    /// An explicit set (sorted, deduplicated). Entries that are not
    /// working are ignored by the executor.
    Only(Vec<ProcessId>),
}

impl ActivationSet {
    /// Builds an explicit activation set, sorting and deduplicating.
    pub fn of(ids: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut v: Vec<ProcessId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ActivationSet::Only(v)
    }

    /// A singleton activation.
    pub fn solo(p: ProcessId) -> Self {
        ActivationSet::Only(vec![p])
    }

    /// Whether `p` is activated by this set, assuming `p` is working.
    pub fn activates(&self, p: ProcessId) -> bool {
        match self {
            ActivationSet::All => true,
            ActivationSet::Only(v) => v.binary_search(&p).is_ok(),
        }
    }

    /// Resolves the set against the current working list, yielding the
    /// concrete processes to activate (in increasing id order).
    pub fn resolve(&self, working: &[ProcessId]) -> Vec<ProcessId> {
        let mut out = Vec::new();
        self.resolve_into(working, &mut out);
        out
    }

    /// [`ActivationSet::resolve`] into a caller-owned buffer, which is
    /// cleared first.
    fn resolve_into(&self, working: &[ProcessId], out: &mut Vec<ProcessId>) {
        out.clear();
        match self {
            ActivationSet::All => out.extend_from_slice(working),
            ActivationSet::Only(v) => out.extend(
                v.iter()
                    .copied()
                    .filter(|p| working.binary_search(p).is_ok()),
            ),
        }
    }
}

/// A schedule: the adversary choosing `σ(t)`.
///
/// `next` receives the time step and the sorted list of processes still
/// working, and answers with the activation set — or `None` to end the
/// schedule, crashing every process still working.
///
/// Implementations that intend executions to *terminate* must be fair:
/// every working process should be activated infinitely often. Crash
/// plans deliberately break fairness for the processes they crash, which
/// is precisely what wait-freedom tolerates.
pub trait Schedule {
    /// The activation set for time step `t`.
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet>;

    /// The activation set for time step `t`, already resolved against
    /// `working`, written into `out` (cleared first). Returns `false`
    /// where [`Schedule::next`] returns `None`.
    ///
    /// This is `next(t, working).map(|s| s.resolve(working))` with the
    /// same schedule state afterwards; schedules on a hot loop override
    /// it to draw straight into `out` without allocating.
    fn next_into(&mut self, t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        match self.next(t, working) {
            Some(set) => {
                set.resolve_into(working, out);
                true
            }
            None => {
                out.clear();
                false
            }
        }
    }
}

impl<S: Schedule + ?Sized> Schedule for Box<S> {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        (**self).next(t, working)
    }

    fn next_into(&mut self, t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        (**self).next_into(t, working, out)
    }
}

impl<S: Schedule + ?Sized> Schedule for &mut S {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        (**self).next(t, working)
    }

    fn next_into(&mut self, t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        (**self).next_into(t, working, out)
    }
}

/// The synchronous schedule: every working process is activated at every
/// step. This is the failure-free lock-step LOCAL regime — the setting of
/// Linial's lower bound, which the paper's Property 2.2 inherits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Synchronous {
    /// Creates the synchronous schedule.
    pub fn new() -> Self {
        Synchronous
    }
}

impl Schedule for Synchronous {
    fn next(&mut self, _t: Time, _working: &[ProcessId]) -> Option<ActivationSet> {
        Some(ActivationSet::All)
    }

    fn next_into(&mut self, _t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        out.clear();
        out.extend_from_slice(working);
        true
    }
}

/// Activates exactly one working process per step, cycling through ids in
/// increasing order — the maximally sequential fair schedule.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next_index: usize,
}

impl RoundRobin {
    /// Creates a round-robin schedule starting from the lowest id.
    pub fn new() -> Self {
        RoundRobin { next_index: 0 }
    }
}

impl Schedule for RoundRobin {
    fn next(&mut self, _t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if working.is_empty() {
            return None;
        }
        let pos = working
            .iter()
            .position(|p| p.index() >= self.next_index)
            .unwrap_or(0);
        let p = working[pos];
        self.next_index = p.index() + 1;
        Some(ActivationSet::solo(p))
    }
}

/// Runs processes to completion one at a time, in a given order: process
/// `order[0]` is activated alone until it returns, then `order[1]`, etc.
///
/// Under a wait-free algorithm every solo run terminates; this schedule
/// maximizes the "my neighbors look asleep/frozen" phenomenon.
#[derive(Debug, Clone)]
pub struct SoloRunner {
    order: Vec<ProcessId>,
    pos: usize,
}

impl SoloRunner {
    /// Solo-runs processes in increasing id order.
    pub fn ascending(n: usize) -> Self {
        SoloRunner {
            order: (0..n).map(ProcessId).collect(),
            pos: 0,
        }
    }
}

impl Schedule for SoloRunner {
    fn next(&mut self, _t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        while self.pos < self.order.len() {
            let p = self.order[self.pos];
            if working.binary_search(&p).is_ok() {
                return Some(ActivationSet::solo(p));
            }
            self.pos += 1;
        }
        None
    }
}

/// Activates each working process independently with probability `p` per
/// step (at least one process is always activated, drawn uniformly, so
/// the schedule is fair and executions make progress).
#[derive(Debug, Clone)]
pub struct RandomSubset {
    rng: StdRng,
    p: f64,
}

impl RandomSubset {
    /// Creates a seeded random-subset schedule with inclusion
    /// probability `p` (clamped to `[0, 1]`).
    pub fn new(seed: u64, p: f64) -> Self {
        RandomSubset {
            rng: StdRng::seed_from_u64(seed),
            p: p.clamp(0.0, 1.0),
        }
    }
}

impl Schedule for RandomSubset {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        let mut set = Vec::new();
        self.next_into(t, working, &mut set)
            .then_some(ActivationSet::Only(set))
    }

    fn next_into(&mut self, _t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        out.clear();
        if working.is_empty() {
            return false;
        }
        out.extend(
            working
                .iter()
                .copied()
                .filter(|_| self.rng.gen_bool(self.p)),
        );
        if out.is_empty() {
            out.push(working[self.rng.gen_range(0..working.len())]);
        }
        true
    }
}

/// A sweeping window: at step `t`, the processes with ids in
/// `[t·stride mod n, …)` of width `width` are activated. Produces heavily
/// staggered wake-ups and long stretches where a given process is frozen.
#[derive(Debug, Clone)]
pub struct Wave {
    n: usize,
    width: usize,
    stride: usize,
}

impl Wave {
    /// A wave over `n` ids with window `width ≥ 1` advancing by `stride ≥ 1`
    /// per step.
    pub fn new(n: usize, width: usize, stride: usize) -> Self {
        Wave {
            n,
            width: width.max(1),
            stride: stride.max(1),
        }
    }
}

impl Schedule for Wave {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if working.is_empty() {
            return None;
        }
        let start = ((t as usize).wrapping_sub(1).wrapping_mul(self.stride)) % self.n;
        let ids = (0..self.width.min(self.n)).map(|k| ProcessId((start + k) % self.n));
        Some(ActivationSet::of(ids))
    }
}

/// Everyone runs synchronously except one designated *laggard*, which is
/// only activated every `period`-th step. Exercises the paper's
/// "moderately slow process" analysis around Lemma 4.7: a slow neighbor
/// withholds the green light but cannot stall its neighbors forever.
#[derive(Debug, Clone)]
pub struct Laggard {
    slow: ProcessId,
    period: u64,
}

impl Laggard {
    /// The `slow` process is activated at times `t ≡ 0 (mod period)` only;
    /// everyone else at every step. `period` is clamped to ≥ 1.
    pub fn new(slow: ProcessId, period: u64) -> Self {
        Laggard {
            slow,
            period: period.max(1),
        }
    }
}

impl Schedule for Laggard {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if working.is_empty() {
            return None;
        }
        if t.is_multiple_of(self.period) {
            Some(ActivationSet::All)
        } else {
            Some(ActivationSet::of(
                working.iter().copied().filter(|&p| p != self.slow),
            ))
        }
    }
}

/// Wraps any schedule with per-process crash times: process `p` with
/// crash time `T` is never activated at any step `t ≥ T`. When every
/// working process has crashed the schedule ends.
///
/// This is the paper's fail-stop fault model (§2.2): a crash is simply
/// the absence of further activations. Until the first crash time the
/// inner schedule's sets pass through unchanged, so a synchronous
/// [`ActivationSet::All`] stays `All` (which the executor steps without
/// copying the working list).
#[derive(Debug, Clone)]
pub struct CrashPlan<S> {
    inner: S,
    /// One crash time per process, sorted by process.
    crash_at: Vec<(ProcessId, Time)>,
}

impl<S: Schedule> CrashPlan<S> {
    /// Overlays the given crash times onto `inner`. A process listed
    /// twice crashes at its later-listed time.
    pub fn new(inner: S, crashes: impl IntoIterator<Item = (ProcessId, Time)>) -> Self {
        let mut crash_at: Vec<(ProcessId, Time)> = crashes.into_iter().collect();
        // Reversed, the stable sort puts each process's last-listed entry
        // first in its run, and `dedup` keeps the first.
        crash_at.reverse();
        crash_at.sort_by_key(|&(p, _)| p);
        crash_at.dedup_by_key(|&mut (p, _)| p);
        CrashPlan { inner, crash_at }
    }

    /// The processes this plan crashes, with their crash times, in
    /// process order.
    pub fn crashes(&self) -> impl Iterator<Item = (ProcessId, Time)> + '_ {
        self.crash_at.iter().copied()
    }

    fn crashed(&self, p: ProcessId, t: Time) -> bool {
        self.crash_at
            .binary_search_by_key(&p, |&(q, _)| q)
            .is_ok_and(|i| t >= self.crash_at[i].1)
    }
}

impl<S: Schedule> Schedule for CrashPlan<S> {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if self.crash_at.iter().any(|&(_, at)| t >= at) {
            let mut survivors = Vec::new();
            return self
                .next_into(t, working, &mut survivors)
                .then_some(ActivationSet::Only(survivors));
        }
        if working.iter().all(|&p| self.crashed(p, t)) {
            return None;
        }
        self.inner.next(t, working)
    }

    fn next_into(&mut self, t: Time, working: &[ProcessId], out: &mut Vec<ProcessId>) -> bool {
        if working.iter().all(|&p| self.crashed(p, t)) {
            out.clear();
            return false;
        }
        if !self.inner.next_into(t, working, out) {
            return false;
        }
        if self.crash_at.iter().any(|&(_, at)| t >= at) {
            out.retain(|&p| !self.crashed(p, t));
        }
        true
    }
}

/// A fully explicit schedule: a finite list of activation sets, after
/// which the schedule ends (crashing any process still working). This is
/// how recorded [`Trace`](crate::trace::Trace)s replay and how the model
/// checker's counterexamples are packaged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedSequence {
    sets: Vec<ActivationSet>,
    pos: usize,
}

impl FixedSequence {
    /// A schedule playing exactly these activation sets.
    pub fn new(sets: Vec<ActivationSet>) -> Self {
        FixedSequence { sets, pos: 0 }
    }

    /// Convenience: build from raw index lists.
    ///
    /// ```
    /// use ftcolor_model::schedule::FixedSequence;
    /// let s = FixedSequence::from_indices([vec![0, 2], vec![1]]);
    /// ```
    pub fn from_indices(sets: impl IntoIterator<Item = Vec<usize>>) -> Self {
        Self::new(
            sets.into_iter()
                .map(|v| ActivationSet::of(v.into_iter().map(ProcessId)))
                .collect(),
        )
    }

    /// The underlying activation sets.
    pub fn sets(&self) -> &[ActivationSet] {
        &self.sets
    }
}

impl Schedule for FixedSequence {
    fn next(&mut self, _t: Time, _working: &[ProcessId]) -> Option<ActivationSet> {
        let s = self.sets.get(self.pos).cloned();
        if s.is_some() {
            self.pos += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<ProcessId> {
        v.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn activation_set_of_sorts_and_dedups() {
        let s = ActivationSet::of(ids(&[3, 1, 3, 2]));
        assert_eq!(s, ActivationSet::Only(ids(&[1, 2, 3])));
        assert!(s.activates(ProcessId(2)));
        assert!(!s.activates(ProcessId(0)));
        assert!(ActivationSet::All.activates(ProcessId(99)));
    }

    #[test]
    fn resolve_filters_non_working() {
        let s = ActivationSet::of(ids(&[0, 1, 2]));
        assert_eq!(s.resolve(&ids(&[1, 2, 5])), ids(&[1, 2]));
        assert_eq!(ActivationSet::All.resolve(&ids(&[1, 5])), ids(&[1, 5]));
    }

    #[test]
    fn round_robin_cycles_through_working() {
        let mut rr = RoundRobin::new();
        let w = ids(&[0, 2, 4]);
        let picks: Vec<_> = (1..=6).map(|t| rr.next(t, &w).unwrap()).collect();
        let expect: Vec<_> = [0, 2, 4, 0, 2, 4]
            .iter()
            .map(|&i| ActivationSet::solo(ProcessId(i)))
            .collect();
        assert_eq!(picks, expect);
        assert_eq!(rr.next(7, &[]), None);
    }

    #[test]
    fn round_robin_skips_returned() {
        let mut rr = RoundRobin::new();
        assert_eq!(
            rr.next(1, &ids(&[0, 1, 2])),
            Some(ActivationSet::solo(ProcessId(0)))
        );
        // 1 returned meanwhile.
        assert_eq!(
            rr.next(2, &ids(&[0, 2])),
            Some(ActivationSet::solo(ProcessId(2)))
        );
    }

    #[test]
    fn solo_runner_advances_and_ends() {
        let mut s = SoloRunner::ascending(2);
        assert_eq!(
            s.next(1, &ids(&[0, 1, 2])),
            Some(ActivationSet::solo(ProcessId(0)))
        );
        // 0 returned: move on to 1.
        assert_eq!(
            s.next(2, &ids(&[1, 2])),
            Some(ActivationSet::solo(ProcessId(1)))
        );
        // everyone in the order done; process 2 (not in order) is crashed.
        assert_eq!(s.next(3, &ids(&[2])), None);
    }

    #[test]
    fn random_subset_is_seeded_and_nonempty() {
        let w = ids(&[0, 1, 2, 3, 4]);
        let run = |seed| {
            let mut s = RandomSubset::new(seed, 0.3);
            (1..=20).map(|t| s.next(t, &w).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        for set in run(7) {
            assert!(!set.resolve(&w).is_empty(), "progress guarantee");
        }
        // Probability 0 still activates exactly one process per step.
        let mut s = RandomSubset::new(1, 0.0);
        for t in 1..=10 {
            assert_eq!(s.next(t, &w).unwrap().resolve(&w).len(), 1);
        }
    }

    #[test]
    fn wave_sweeps() {
        let mut wv = Wave::new(5, 2, 1);
        let w = ids(&[0, 1, 2, 3, 4]);
        assert_eq!(wv.next(1, &w), Some(ActivationSet::of(ids(&[0, 1]))));
        assert_eq!(wv.next(2, &w), Some(ActivationSet::of(ids(&[1, 2]))));
        assert_eq!(wv.next(5, &w), Some(ActivationSet::of(ids(&[0, 4]))));
    }

    #[test]
    fn laggard_withholds_slow_process() {
        let mut l = Laggard::new(ProcessId(1), 3);
        let w = ids(&[0, 1, 2]);
        assert_eq!(l.next(1, &w), Some(ActivationSet::of(ids(&[0, 2]))));
        assert_eq!(l.next(2, &w), Some(ActivationSet::of(ids(&[0, 2]))));
        assert_eq!(l.next(3, &w), Some(ActivationSet::All));
    }

    #[test]
    fn crash_plan_filters_and_ends() {
        let mut cp = CrashPlan::new(Synchronous::new(), [(ProcessId(1), 3)]);
        let w = ids(&[0, 1, 2]);
        // Before the first crash time the inner set passes through.
        assert_eq!(cp.next(1, &w), Some(ActivationSet::All));
        assert_eq!(cp.next(2, &w), Some(ActivationSet::All));
        assert_eq!(cp.next(3, &w).unwrap().resolve(&w), ids(&[0, 2]));
        // Only the crashed process left working: schedule ends.
        assert_eq!(cp.next(4, &ids(&[1])), None);
    }

    #[test]
    fn crash_plan_sorts_by_process_and_the_later_entry_wins() {
        let cp = CrashPlan::new(
            Synchronous::new(),
            [(ProcessId(4), 7), (ProcessId(1), 3), (ProcessId(4), 2)],
        );
        assert_eq!(
            cp.crashes().collect::<Vec<_>>(),
            [(ProcessId(1), 3), (ProcessId(4), 2)]
        );
        assert!(cp.crashed(ProcessId(4), 2) && !cp.crashed(ProcessId(4), 1));
        assert!(!cp.crashed(ProcessId(0), 100));
    }

    #[test]
    fn fixed_sequence_replays_then_ends() {
        let mut fs = FixedSequence::from_indices([vec![0], vec![1, 2]]);
        let w = ids(&[0, 1, 2]);
        assert_eq!(fs.next(1, &w), Some(ActivationSet::of(ids(&[0]))));
        assert_eq!(fs.next(2, &w), Some(ActivationSet::of(ids(&[1, 2]))));
        assert_eq!(fs.next(3, &w), None);
    }
}

/// Repeats each activation set of the inner schedule `k` times — a
/// "slow motion" adversary that lets every configuration soak before the
/// next change (useful for shaking out stale-read bugs).
#[derive(Debug, Clone)]
pub struct Stutter<S> {
    inner: S,
    k: u64,
    current: Option<ActivationSet>,
    remaining: u64,
}

impl<S: Schedule> Stutter<S> {
    /// Repeats each of `inner`'s sets `k ≥ 1` times.
    pub fn new(inner: S, k: u64) -> Self {
        Stutter {
            inner,
            k: k.max(1),
            current: None,
            remaining: 0,
        }
    }
}

impl<S: Schedule> Schedule for Stutter<S> {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if self.remaining == 0 {
            self.current = Some(self.inner.next(t, working)?);
            self.remaining = self.k;
        }
        self.remaining -= 1;
        self.current.clone()
    }
}

/// Runs schedule `A` until it ends, then hands over to `B` — e.g. an
/// adversarial [`FixedSequence`] prefix followed by a fair
/// [`Synchronous`] tail. (Note the reinterpretation: `A` returning
/// `None` here means "prefix exhausted", not "crash everyone"; only
/// `B`'s `None` ends the combined schedule.)
#[derive(Debug, Clone)]
pub struct Then<A, B> {
    first: Option<A>,
    second: B,
}

impl<A: Schedule, B: Schedule> Then<A, B> {
    /// Chains `first` before `second`.
    pub fn new(first: A, second: B) -> Self {
        Then {
            first: Some(first),
            second,
        }
    }
}

impl<A: Schedule, B: Schedule> Schedule for Then<A, B> {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        if let Some(f) = &mut self.first {
            match f.next(t, working) {
                Some(set) => return Some(set),
                None => self.first = None,
            }
        }
        self.second.next(t, working)
    }
}

#[cfg(test)]
mod combinator_tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<ProcessId> {
        v.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn stutter_repeats_each_set() {
        let inner = FixedSequence::from_indices([vec![0], vec![1]]);
        let mut s = Stutter::new(inner, 3);
        let w = ids(&[0, 1]);
        let picks: Vec<_> = (1..=6).map(|t| s.next(t, &w).unwrap()).collect();
        assert_eq!(picks[0], picks[1]);
        assert_eq!(picks[1], picks[2]);
        assert_eq!(picks[3], picks[5]);
        assert_ne!(picks[0], picks[3]);
        assert_eq!(s.next(7, &w), None);
    }

    #[test]
    fn then_switches_after_prefix() {
        let prefix = FixedSequence::from_indices([vec![1]]);
        let mut s = Then::new(prefix, Synchronous::new());
        let w = ids(&[0, 1, 2]);
        assert_eq!(s.next(1, &w), Some(ActivationSet::of(ids(&[1]))));
        assert_eq!(s.next(2, &w), Some(ActivationSet::All));
        assert_eq!(s.next(3, &w), Some(ActivationSet::All));
    }
}
