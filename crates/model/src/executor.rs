//! The execution engine.
//!
//! [`Execution`] drives an [`Algorithm`] over a [`Topology`] under a
//! [`Schedule`], implementing the paper's round semantics exactly
//! (§2.1–2.2):
//!
//! * a time step activates a set of *working* processes;
//! * all activated processes **write** first, then all **read**, then all
//!   **update** — so simultaneously-activated neighbors see each other's
//!   time-`t` writes (`x̂_p(t) = x_p(t−1)` for `p ∈ σ(t)`, paper Eq. (1));
//! * a returned process's register keeps its last written value forever;
//! * a process the schedule stops activating has crashed.
//!
//! The engine counts activations per process; the *round complexity* of an
//! execution (paper §2.2) is the maximum activation count, available as
//! [`ExecutionReport::max_activations`].

use crate::algorithm::{Algorithm, Neighborhood, Step};
use crate::error::ModelError;
use crate::graph::Topology;
use crate::ids::{ProcessId, Time};
use crate::schedule::{ActivationSet, Schedule};
use crate::trace::Trace;

/// Passive observation hooks into the three-phase step semantics.
///
/// An observer is threaded through [`Execution::step_with_observed`] and
/// [`Execution::run_observed`] and is called at fixed points of every time
/// step: after each phase-1 write, immediately before and after each
/// process's update, and once at the end of the step. All callbacks take
/// the configuration by shared reference — an observer **cannot** change
/// the execution, only watch it. Every callback defaults to a no-op, and
/// `()` implements the trait, so `step_with` is exactly
/// `step_with_observed(set, &mut ())`.
///
/// This is the instrumentation point used by `ftcolor-analyze`'s contract
/// linter; the property-based test suite checks that running under an
/// observer is bit-identical to running without one.
pub trait ExecObserver<A: Algorithm> {
    /// Process `p` has just written its register (phase 1 of step `t`).
    ///
    /// `registers` is the full register file *after* the write.
    fn on_write(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        registers: &[Option<A::Reg>],
    ) {
        let _ = (t, p, states, registers);
    }

    /// Process `p` is about to update (phases 2–3 of step `t`).
    ///
    /// `view` is the neighborhood snapshot handed to [`Algorithm::step`],
    /// indexed like `topology().neighbors(p)`; `states` is the full state
    /// vector *before* `p`'s update (but after the updates of processes
    /// activated earlier in the same step).
    fn on_before_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
    ) {
        let _ = (t, p, states, view);
    }

    /// Process `p` has updated; `returned` is its output if this update
    /// returned. `view` is the same snapshot passed to `on_before_update`.
    fn on_after_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
        returned: Option<&A::Output>,
    ) {
        let _ = (t, p, states, view, returned);
    }

    /// Time step `t` is complete; `active` is the resolved activation set.
    fn on_step_end(
        &mut self,
        t: Time,
        active: &[ProcessId],
        states: &[A::State],
        registers: &[Option<A::Reg>],
    ) {
        let _ = (t, active, states, registers);
    }
}

/// The no-op observer: observing with `()` is the unobserved execution.
impl<A: Algorithm> ExecObserver<A> for () {}

/// The visible status of one process during or after an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessStatus<O> {
    /// Never activated: its register still holds `⊥`.
    Asleep,
    /// Activated at least once, has not yet returned.
    Working,
    /// Terminated with this output.
    Returned(O),
}

/// A live execution: per-process states, registers, and bookkeeping.
///
/// Most callers use [`Execution::run`]; checkers that must observe
/// intermediate configurations drive [`Execution::step_with`] directly
/// and inspect the accessors between steps.
pub struct Execution<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    states: Vec<A::State>,
    registers: Vec<Option<A::Reg>>,
    outputs: Vec<Option<A::Output>>,
    activations: Vec<u64>,
    working: Vec<ProcessId>,
    time: Time,
    record: bool,
    recorded: Vec<ActivationSet>,
    /// The view buffer every step reuses (contents only live for one
    /// update, so it is not part of the configuration).
    view: Vec<Option<A::Reg>>,
}

impl<'a, A: Algorithm> Clone for Execution<'a, A> {
    fn clone(&self) -> Self {
        Execution {
            alg: self.alg,
            topo: self.topo,
            states: self.states.clone(),
            registers: self.registers.clone(),
            outputs: self.outputs.clone(),
            activations: self.activations.clone(),
            working: self.working.clone(),
            time: self.time,
            record: self.record,
            recorded: self.recorded.clone(),
            view: Vec::new(),
        }
    }
}

impl<'a, A: Algorithm> Execution<'a, A> {
    /// Sets up an execution in the initial configuration: every process
    /// asleep, every register `⊥`, states built by [`Algorithm::init`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of nodes; use
    /// [`Execution::try_new`] for a fallible variant.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>) -> Self {
        Self::try_new(alg, topo, inputs).expect("one input per node")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputLengthMismatch`] if `inputs.len()`
    /// differs from the number of nodes.
    pub fn try_new(
        alg: &'a A,
        topo: &'a Topology,
        inputs: Vec<A::Input>,
    ) -> Result<Self, ModelError> {
        if inputs.len() != topo.len() {
            return Err(ModelError::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: topo.len(),
            });
        }
        let mut exec = Execution {
            alg,
            topo,
            states: Vec::new(),
            registers: Vec::new(),
            outputs: Vec::new(),
            activations: Vec::new(),
            working: Vec::new(),
            time: 0,
            record: false,
            recorded: Vec::new(),
            view: Vec::new(),
        };
        exec.reinit(inputs);
        Ok(exec)
    }

    /// Puts this execution back into the initial configuration for
    /// `inputs`, reusing its buffers: afterwards it equals
    /// `Execution::new(alg, topo, inputs)` on its own algorithm and
    /// topology (trace recording off, nothing recorded). This is the
    /// one definition of the initial configuration; the constructors
    /// build through it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not yield one input per node.
    pub fn reinit(&mut self, inputs: impl IntoIterator<Item = A::Input>) {
        let alg = self.alg;
        self.states.clear();
        self.states.extend(
            inputs
                .into_iter()
                .enumerate()
                .map(|(i, x)| alg.init(ProcessId(i), x)),
        );
        let n = self.topo.len();
        assert_eq!(self.states.len(), n, "one input per node");
        self.registers.clear();
        self.registers.resize_with(n, || None);
        self.outputs.clear();
        self.outputs.resize_with(n, || None);
        self.activations.clear();
        self.activations.resize(n, 0);
        self.working.clear();
        self.working.extend((0..n).map(ProcessId));
        self.time = 0;
        self.record = false;
        self.recorded.clear();
    }

    /// Enables trace recording: every resolved activation set is kept and
    /// can be extracted as a replayable [`Trace`] via
    /// [`Execution::into_trace`] (or read with [`Execution::recorded`]).
    pub fn record_trace(&mut self, on: bool) -> &mut Self {
        self.record = on;
        self
    }

    /// The topology this execution runs on.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Current model time (number of steps executed).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The sorted list of processes that have not returned.
    pub fn working(&self) -> &[ProcessId] {
        &self.working
    }

    /// The private state of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn state(&self, p: ProcessId) -> &A::State {
        &self.states[p.index()]
    }

    /// The published register of process `p` (`None` = `⊥`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn register(&self, p: ProcessId) -> Option<&A::Reg> {
        self.registers[p.index()].as_ref()
    }

    /// All registers, indexed by process.
    pub fn registers(&self) -> &[Option<A::Reg>] {
        &self.registers
    }

    /// Number of activations process `p` has performed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn activation_count(&self, p: ProcessId) -> u64 {
        self.activations[p.index()]
    }

    /// The status of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn status(&self, p: ProcessId) -> ProcessStatus<A::Output> {
        match &self.outputs[p.index()] {
            Some(o) => ProcessStatus::Returned(o.clone()),
            None if self.activations[p.index()] == 0 => ProcessStatus::Asleep,
            None => ProcessStatus::Working,
        }
    }

    /// Per-process outputs so far (`None` = not returned).
    pub fn outputs(&self) -> &[Option<A::Output>] {
        &self.outputs
    }

    /// `true` once every process has returned.
    pub fn all_returned(&self) -> bool {
        self.working.is_empty()
    }

    /// The activation sets recorded so far (empty unless
    /// [`Execution::record_trace`] was enabled).
    pub fn recorded(&self) -> &[ActivationSet] {
        &self.recorded
    }

    /// Overwrites the configuration slot of process `p` — private state,
    /// register, and output — keeping the working set consistent (a
    /// process is working iff it has no output).
    ///
    /// This is the checker's encoding hook: the compact-state engines
    /// materialize stored configurations into a scratch execution and
    /// undo exploratory steps slot by slot instead of cloning whole
    /// executions. Time and activation counters are left untouched; they
    /// are not part of a configuration (step semantics never read them).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn restore_slot(
        &mut self,
        p: ProcessId,
        state: A::State,
        reg: Option<A::Reg>,
        output: Option<A::Output>,
    ) {
        let i = p.index();
        let was_working = self.outputs[i].is_none();
        let now_working = output.is_none();
        self.states[i] = state;
        self.registers[i] = reg;
        self.outputs[i] = output;
        if was_working && !now_working {
            self.working.retain(|&q| q != p);
        } else if !was_working && now_working {
            let pos = self.working.partition_point(|&q| q < p);
            self.working.insert(pos, p);
        }
    }

    /// Resets this execution to the exact state of `other` (same
    /// algorithm instance and topology), reusing this execution's
    /// buffers instead of allocating fresh ones — the cheap way to
    /// re-evaluate many schedules from one root configuration.
    ///
    /// # Panics
    ///
    /// Panics if the two executions run on topologies of different
    /// sizes.
    pub fn reset_from(&mut self, other: &Execution<'a, A>) {
        assert_eq!(
            self.topo.len(),
            other.topo.len(),
            "reset_from needs same-size instances"
        );
        self.states.clone_from(&other.states);
        self.registers.clone_from(&other.registers);
        self.outputs.clone_from(&other.outputs);
        self.activations.clone_from(&other.activations);
        self.working.clone_from(&other.working);
        self.time = other.time;
        self.record = other.record;
        self.recorded.clone_from(&other.recorded);
    }

    /// Consumes the execution, yielding the recorded trace.
    pub fn into_trace(self) -> Trace {
        Trace::new(self.topo.len(), self.recorded)
    }

    /// Executes one time step with the given activation set, resolved
    /// against the working processes. Returns the processes actually
    /// activated (possibly empty).
    ///
    /// This is the three-phase step of §2.1: all writes, then all reads,
    /// then all updates.
    pub fn step_with(&mut self, set: &ActivationSet) -> Vec<ProcessId> {
        let active = set.resolve(&self.working);
        self.step_active(&active);
        active
    }

    /// Executes one time step activating exactly `active`, a set already
    /// resolved against the working processes (sorted, every entry
    /// working — what [`ActivationSet::resolve`] and
    /// [`Schedule::next_into`] produce). The step of
    /// [`Execution::step_with`] without resolving or allocating.
    pub fn step_active(&mut self, active: &[ProcessId]) {
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1])
                && active.iter().all(|p| self.outputs[p.index()].is_none()),
            "step_active needs a sorted set of working processes"
        );
        self.step_resolved(Some(active), &mut ());
    }

    /// [`Execution::step_with`] with an [`ExecObserver`] threaded through
    /// the three phases. The observer only watches; the step semantics are
    /// identical (both end in the same three-phase step as
    /// [`Execution::step_active`]).
    pub fn step_with_observed(
        &mut self,
        set: &ActivationSet,
        obs: &mut impl ExecObserver<A>,
    ) -> Vec<ProcessId> {
        let active = set.resolve(&self.working);
        self.step_resolved(Some(&active), obs);
        active
    }

    /// The three-phase step over `active`, already resolved against the
    /// working list; `None` activates every working process.
    fn step_resolved(&mut self, active: Option<&[ProcessId]>, obs: &mut impl ExecObserver<A>) {
        self.time += 1;
        let active = active.unwrap_or(&self.working);
        if self.record {
            self.recorded.push(ActivationSet::Only(active.to_vec()));
        }

        // Phase 1: all activated processes write.
        for &p in active {
            self.registers[p.index()] = Some(self.alg.publish(&self.states[p.index()]));
            obs.on_write(self.time, p, &self.states, &self.registers);
        }

        // Phases 2–3: all activated processes read their neighborhoods
        // (which include every phase-1 write of this step) and update.
        let mut returned_any = false;
        for &p in active {
            self.view.clear();
            self.view.extend(
                self.topo
                    .neighbors(p)
                    .iter()
                    .map(|q| self.registers[q.index()].clone()),
            );
            obs.on_before_update(self.time, p, &self.states, &self.view);
            let view = Neighborhood::new(&self.view);
            self.activations[p.index()] += 1;
            let returned = match self.alg.step(&mut self.states[p.index()], &view) {
                Step::Continue => None,
                Step::Return(o) => {
                    self.outputs[p.index()] = Some(o);
                    returned_any = true;
                    self.outputs[p.index()].as_ref()
                }
            };
            obs.on_after_update(self.time, p, &self.states, &self.view, returned);
        }
        obs.on_step_end(self.time, active, &self.states, &self.registers);
        if returned_any {
            let outputs = &self.outputs;
            self.working.retain(|p| outputs[p.index()].is_none());
        }
    }

    /// Runs the execution under an **adaptive adversary**: a closure that
    /// inspects the full configuration (states, registers, outputs) and
    /// picks the next activation set — strictly stronger than a
    /// [`Schedule`], which sees only the working set. Returning `None`
    /// ends the schedule (crashing the remaining processes).
    ///
    /// The paper's lower bounds quantify over this adversary class; the
    /// test suite uses it to drive worst cases that oblivious schedules
    /// essentially never produce (e.g. "keep the two most-active
    /// processes in lockstep").
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonTermination`] exactly like
    /// [`Execution::run`].
    pub fn run_adaptive(
        &mut self,
        adversary: impl FnMut(&Execution<'a, A>) -> Option<ActivationSet>,
        fuel: u64,
    ) -> Result<ExecutionReport<A::Output>, ModelError> {
        let crashed = self.drive(adversary, fuel, &mut ())?;
        Ok(self.report(crashed))
    }

    /// Runs the execution under `schedule` until every process has
    /// returned, the schedule ends (crashing the remaining processes), or
    /// `fuel` time steps elapse.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonTermination`] if fuel runs out with
    /// processes still working *and* the schedule still willing to
    /// activate them — for a wait-free algorithm under a fair schedule
    /// this indicates a bug.
    pub fn run(
        &mut self,
        schedule: impl Schedule,
        fuel: u64,
    ) -> Result<ExecutionReport<A::Output>, ModelError> {
        self.run_observed(schedule, fuel, &mut ())
    }

    /// [`Execution::run`] with an [`ExecObserver`] threaded through every
    /// step. Semantics (and errors) are identical to `run`, which
    /// delegates here with the no-op observer `()`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonTermination`] exactly like
    /// [`Execution::run`].
    pub fn run_observed(
        &mut self,
        mut schedule: impl Schedule,
        fuel: u64,
        obs: &mut impl ExecObserver<A>,
    ) -> Result<ExecutionReport<A::Output>, ModelError> {
        let crashed = self.drive(|e| schedule.next(e.time + 1, &e.working), fuel, obs)?;
        Ok(self.report(crashed))
    }

    /// The loop of [`Execution::run`] without the report:
    /// returns the processes the schedule crashed by ending. A caller
    /// that is done with the execution then takes the report with
    /// [`Execution::into_report`], which moves the per-process vectors
    /// instead of copying them.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonTermination`] exactly like
    /// [`Execution::run`].
    pub fn run_to_end(
        &mut self,
        mut schedule: impl Schedule,
        fuel: u64,
    ) -> Result<Vec<ProcessId>, ModelError> {
        self.drive(|e| schedule.next(e.time + 1, &e.working), fuel, &mut ())
    }

    /// Consumes the execution into the report [`Execution::run`] would
    /// build with `crashed`, moving outputs and activation counts
    /// instead of cloning them, plus the recorded activation sets.
    pub fn into_report(
        self,
        crashed: Vec<ProcessId>,
    ) -> (ExecutionReport<A::Output>, Vec<ActivationSet>) {
        let report = ExecutionReport {
            outputs: self.outputs,
            activations: self.activations,
            time_steps: self.time,
            crashed,
        };
        (report, self.recorded)
    }

    /// The shared run loop: at most `fuel` steps, each chosen by `next`
    /// from the current configuration, stopping once nobody works or
    /// `next` ends the schedule (crashing the working processes).
    fn drive(
        &mut self,
        mut next: impl FnMut(&Self) -> Option<ActivationSet>,
        fuel: u64,
        obs: &mut impl ExecObserver<A>,
    ) -> Result<Vec<ProcessId>, ModelError> {
        for _ in 0..fuel {
            if self.working.is_empty() {
                return Ok(Vec::new());
            }
            // Nobody needs the activated list back here, so an `All`
            // step walks the working list in place instead of copying it.
            match next(self) {
                None => return Ok(self.working.clone()),
                Some(ActivationSet::All) => self.step_resolved(None, obs),
                Some(set) => {
                    let active = set.resolve(&self.working);
                    self.step_resolved(Some(&active), obs);
                }
            }
        }
        if self.working.is_empty() {
            Ok(Vec::new())
        } else {
            Err(ModelError::NonTermination {
                fuel,
                still_working: self.working.clone(),
            })
        }
    }

    fn report(&self, crashed: Vec<ProcessId>) -> ExecutionReport<A::Output> {
        ExecutionReport {
            outputs: self.outputs.clone(),
            activations: self.activations.clone(),
            time_steps: self.time,
            crashed,
        }
    }
}

/// Summary of a finished (or crashed-out) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport<O> {
    /// Output of each process (`None` = crashed before returning).
    pub outputs: Vec<Option<O>>,
    /// Activation count of each process.
    pub activations: Vec<u64>,
    /// Total time steps executed.
    pub time_steps: u64,
    /// Processes that crashed (stopped being scheduled while working).
    pub crashed: Vec<ProcessId>,
}

impl<O> ExecutionReport<O> {
    /// The paper's round complexity of this execution: the maximum number
    /// of activations any process performed while working.
    pub fn max_activations(&self) -> u64 {
        self.activations.iter().copied().max().unwrap_or(0)
    }

    /// Number of processes that returned an output.
    pub fn returned_count(&self) -> usize {
        self.outputs.iter().flatten().count()
    }

    /// `true` when every process returned (no crashes, no stragglers).
    pub fn all_returned(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// Iterates over `(process, output)` pairs of returned processes.
    pub fn returned(&self) -> impl Iterator<Item = (ProcessId, &O)> + '_ {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|o| (ProcessId(i), o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CrashPlan, FixedSequence, RoundRobin, Synchronous};

    /// Returns its input after being activated `k` times; publishes the
    /// number of activations performed so far.
    struct CountDown {
        k: u64,
    }

    #[derive(Debug, Clone)]
    struct CdState {
        input: u64,
        seen: u64,
    }

    impl Algorithm for CountDown {
        type Input = u64;
        type State = CdState;
        type Reg = u64;
        type Output = u64;
        fn init(&self, _id: ProcessId, input: u64) -> CdState {
            CdState { input, seen: 0 }
        }
        fn publish(&self, s: &CdState) -> u64 {
            s.seen
        }
        fn step(&self, s: &mut CdState, _view: &Neighborhood<'_, u64>) -> Step<u64> {
            s.seen += 1;
            if s.seen >= self.k {
                Step::Return(s.input)
            } else {
                Step::Continue
            }
        }
    }

    /// Publishes its input; returns the sum of awake neighbors' registers
    /// on its second activation (tests snapshot simultaneity).
    struct SumNeighbors;

    #[derive(Debug, Clone)]
    struct SnState {
        input: u64,
        rounds: u64,
        last_sum: u64,
    }

    impl Algorithm for SumNeighbors {
        type Input = u64;
        type State = SnState;
        type Reg = u64;
        type Output = u64;
        fn init(&self, _id: ProcessId, input: u64) -> SnState {
            SnState {
                input,
                rounds: 0,
                last_sum: 0,
            }
        }
        fn publish(&self, s: &SnState) -> u64 {
            s.input
        }
        fn step(&self, s: &mut SnState, view: &Neighborhood<'_, u64>) -> Step<u64> {
            s.rounds += 1;
            s.last_sum = view.awake().sum();
            if s.rounds >= 2 {
                Step::Return(s.last_sum)
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn synchronous_run_counts_activations() {
        let topo = Topology::cycle(4).unwrap();
        let alg = CountDown { k: 3 };
        let mut exec = Execution::new(&alg, &topo, vec![10, 11, 12, 13]);
        let report = exec.run(Synchronous::new(), 100).unwrap();
        assert!(report.all_returned());
        assert_eq!(report.activations, vec![3, 3, 3, 3]);
        assert_eq!(report.time_steps, 3);
        assert_eq!(report.max_activations(), 3);
        assert_eq!(report.outputs, vec![Some(10), Some(11), Some(12), Some(13)]);
    }

    #[test]
    fn round_robin_takes_n_times_more_steps() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 2 };
        let mut exec = Execution::new(&alg, &topo, vec![0, 1, 2]);
        let report = exec.run(RoundRobin::new(), 100).unwrap();
        assert!(report.all_returned());
        assert_eq!(report.time_steps, 6);
        assert_eq!(report.max_activations(), 2);
    }

    #[test]
    fn simultaneous_neighbors_see_each_others_fresh_writes() {
        // All three processes of C3 are activated together: at the very
        // first step each must already see both neighbors' inputs.
        let topo = Topology::cycle(3).unwrap();
        let alg = SumNeighbors;
        let mut exec = Execution::new(&alg, &topo, vec![1, 2, 4]);
        let report = exec.run(Synchronous::new(), 10).unwrap();
        assert_eq!(report.outputs, vec![Some(6), Some(5), Some(3)]);
    }

    #[test]
    fn asleep_neighbors_read_as_bottom() {
        // Only process 0 runs; its neighbors never wake, so it sums ⊥+⊥ = 0.
        let topo = Topology::cycle(3).unwrap();
        let alg = SumNeighbors;
        let mut exec = Execution::new(&alg, &topo, vec![1, 2, 4]);
        let sched = FixedSequence::from_indices([vec![0], vec![0]]);
        let report = exec.run(sched, 10).unwrap();
        assert_eq!(report.outputs[0], Some(0));
        assert_eq!(report.crashed, vec![ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn returned_process_register_stays_visible() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 1 };
        let mut exec = Execution::new(&alg, &topo, vec![7, 8, 9]);
        // Process 1 runs once and returns (register now holds 0 = seen
        // before increment); then process 0 must still read it.
        exec.step_with(&ActivationSet::solo(ProcessId(1)));
        assert_eq!(exec.status(ProcessId(1)), ProcessStatus::Returned(8u64));
        assert_eq!(exec.register(ProcessId(1)), Some(&0));
        exec.step_with(&ActivationSet::solo(ProcessId(0)));
        assert_eq!(exec.register(ProcessId(1)), Some(&0), "still visible");
    }

    #[test]
    fn activation_of_returned_process_is_ignored() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 1 };
        let mut exec = Execution::new(&alg, &topo, vec![0, 0, 0]);
        exec.step_with(&ActivationSet::solo(ProcessId(0)));
        let active = exec.step_with(&ActivationSet::solo(ProcessId(0)));
        assert!(active.is_empty());
        assert_eq!(exec.activation_count(ProcessId(0)), 1);
    }

    #[test]
    fn statuses_progress_asleep_working_returned() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 2 };
        let mut exec = Execution::new(&alg, &topo, vec![5, 5, 5]);
        assert_eq!(exec.status(ProcessId(0)), ProcessStatus::Asleep);
        assert!(exec.working().contains(&ProcessId(0)));
        exec.step_with(&ActivationSet::solo(ProcessId(0)));
        assert_eq!(exec.status(ProcessId(0)), ProcessStatus::Working);
        exec.step_with(&ActivationSet::solo(ProcessId(0)));
        assert_eq!(exec.status(ProcessId(0)), ProcessStatus::Returned(5));
        assert!(!exec.working().contains(&ProcessId(0)));
    }

    #[test]
    fn crash_plan_produces_partial_outputs() {
        let topo = Topology::cycle(5).unwrap();
        let alg = CountDown { k: 4 };
        let mut exec = Execution::new(&alg, &topo, (0..5).collect());
        let sched = CrashPlan::new(Synchronous::new(), [(ProcessId(2), 2)]);
        let report = exec.run(sched, 100).unwrap();
        assert_eq!(report.crashed, vec![ProcessId(2)]);
        assert_eq!(report.outputs[2], None);
        assert_eq!(report.returned_count(), 4);
        assert_eq!(report.activations[2], 1);
    }

    #[test]
    fn nontermination_is_reported() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: u64::MAX };
        let mut exec = Execution::new(&alg, &topo, vec![0, 0, 0]);
        let err = exec.run(Synchronous::new(), 50).unwrap_err();
        assert!(matches!(err, ModelError::NonTermination { fuel: 50, .. }));
    }

    #[test]
    fn input_length_mismatch() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 1 };
        assert!(matches!(
            Execution::try_new(&alg, &topo, vec![1, 2]),
            Err(ModelError::InputLengthMismatch {
                inputs: 2,
                nodes: 3
            })
        ));
    }

    #[test]
    fn trace_recording_captures_resolved_sets() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 1 };
        let mut exec = Execution::new(&alg, &topo, vec![0, 0, 0]);
        exec.record_trace(true);
        exec.run(Synchronous::new(), 10).unwrap();
        let recorded = exec.recorded().to_vec();
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0], ActivationSet::of((0..3).map(ProcessId)));
    }

    #[test]
    fn adaptive_adversary_sees_the_configuration() {
        // An adversary that always activates the process with the
        // fewest activations — a fair strategy expressed adaptively.
        let topo = Topology::cycle(4).unwrap();
        let alg = CountDown { k: 3 };
        let mut exec = Execution::new(&alg, &topo, vec![0, 1, 2, 3]);
        let report = exec
            .run_adaptive(
                |e| {
                    let p = e
                        .working()
                        .iter()
                        .copied()
                        .min_by_key(|&p| e.activation_count(p))?;
                    Some(ActivationSet::solo(p))
                },
                1000,
            )
            .unwrap();
        assert!(report.all_returned());
        assert_eq!(report.activations, vec![3, 3, 3, 3]);
    }

    #[test]
    fn adaptive_adversary_can_crash_everyone() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 10 };
        let mut exec = Execution::new(&alg, &topo, vec![0, 0, 0]);
        let mut budget = 4;
        let report = exec
            .run_adaptive(
                |_| {
                    budget -= 1;
                    (budget > 0).then_some(ActivationSet::All)
                },
                1000,
            )
            .unwrap();
        assert_eq!(report.crashed.len(), 3);
        assert_eq!(report.returned_count(), 0);
    }

    #[test]
    fn cloned_execution_diverges_independently() {
        let topo = Topology::cycle(3).unwrap();
        let alg = CountDown { k: 3 };
        let mut a = Execution::new(&alg, &topo, vec![0, 1, 2]);
        a.step_with(&ActivationSet::All);
        let mut b = a.clone();
        a.step_with(&ActivationSet::solo(ProcessId(0)));
        assert_eq!(a.activation_count(ProcessId(0)), 2);
        assert_eq!(b.activation_count(ProcessId(0)), 1);
        b.step_with(&ActivationSet::All);
        assert_eq!(b.activation_count(ProcessId(1)), 2);
        assert_eq!(a.activation_count(ProcessId(1)), 1);
    }
}
