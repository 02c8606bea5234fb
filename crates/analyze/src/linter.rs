//! The contract linter: an instrumented abstract executor that flags
//! §2 state-model violations as structured diagnostics.
//!
//! The engine is an [`ExecObserver`] attached to the plain
//! [`Execution`] via `run_observed`/`step_with_observed` — the observed
//! execution itself is bit-identical to an unobserved one (checked by
//! the property-based suite); all probing happens on **clones** of the
//! configuration:
//!
//! * **`FTC-SWMR-001` (single-writer)** — before each update the
//!   observer snapshots every process's prospective register
//!   (`publish(state)`); after the update it recomputes them. A change
//!   in any *other* process's prospective register means the step wrote
//!   a foreign register through interior mutability.
//! * **`FTC-DET-005` (determinism)** — each step is first run twice on
//!   clones of the same state against the same view; any divergence in
//!   post-state or step result is nondeterminism.
//! * **`FTC-SNAP-002` (snapshot scope)** — every (state, view, outcome)
//!   triple is recorded and **replayed later**, after other processes
//!   have taken real steps. A pure step is a function of (state, view)
//!   and must reproduce its outcome exactly; divergence on a
//!   deterministic step means hidden state outside the view leaked in.
//! * **`FTC-STAB-003` (decision stability)** — on `Return(o)`: the
//!   post-decision `publish` must equal the register written this round
//!   (no regression), and re-running the step from the post-decision
//!   state must `Return(o)` again.
//! * **`FTC-PAL-004` (palette)** — returned outputs map into the
//!   declared palette via the spec's color map.
//! * **`FTC-WF-006` (wait-freedom)** — driven by [`lint_algorithm`]
//!   directly: each process is run solo (neighbors forever `⊥`) and
//!   must return within the declared bound.

use std::collections::{HashSet, VecDeque};

use ftcolor_model::prelude::*;
use ftcolor_model::{ExecObserver, Time};

use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic, RuleId};

/// Seeds of the random-schedule battery (each seed adds one crash-free
/// and one crashy run).
pub(crate) const SEEDS: [u64; 3] = [1, 2, 3];

/// Fuel per battery run (runs that exhaust fuel are not themselves
/// violations — only the solo audit checks termination).
pub(crate) const FUEL: u64 = 5_000;

/// A recorded step awaiting deferred replay (the `FTC-SNAP-002` probe).
struct ReplayRec<A: Algorithm> {
    t: Time,
    p: ProcessId,
    before: A::State,
    view: Vec<Option<A::Reg>>,
    after: A::State,
    returned: Option<A::Output>,
}

/// The instrumenting observer. Create one per execution, attach with
/// [`Execution::run_observed`], then harvest with
/// [`LintObserver::finish`].
pub struct LintObserver<'a, A: Algorithm> {
    alg: &'a A,
    spec: &'a ContractSpec<A::Output>,
    diags: Vec<Diagnostic>,
    /// Prospective registers of all processes, captured before each update.
    expected_pub: Vec<A::Reg>,
    /// State captured in `on_before_update` for the pending replay record.
    pending_before: Option<A::State>,
    /// Probe-run outcome: expected (post-state, step result) of the real run.
    probe: Option<(A::State, Step<A::Output>)>,
    replays: VecDeque<ReplayRec<A>>,
    /// Processes already flagged nondeterministic (their replays are
    /// expected to diverge — suppressed to avoid misattributing SNAP).
    det_fired: HashSet<usize>,
}

/// Replay queue bound; older records are replayed eagerly when full.
const REPLAY_CAP: usize = 128;

impl<'a, A> LintObserver<'a, A>
where
    A: Algorithm,
    A::State: PartialEq,
{
    /// A fresh observer for one execution of `alg` under `spec`.
    pub fn new(alg: &'a A, spec: &'a ContractSpec<A::Output>) -> Self {
        LintObserver {
            alg,
            spec,
            diags: Vec::new(),
            expected_pub: Vec::new(),
            pending_before: None,
            probe: None,
            replays: VecDeque::new(),
            det_fired: HashSet::new(),
        }
    }

    /// Drains the remaining replay queue and yields the diagnostics.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        while let Some(rec) = self.replays.pop_front() {
            self.replay_check(&rec);
        }
        self.diags
    }

    fn emit(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Re-runs a recorded step and compares outcomes. Sound at any later
    /// point: a deterministic step that reads only (state, view) must
    /// reproduce exactly; the *deferral* is what perturbs hidden state
    /// enough to expose smuggling.
    fn replay_check(&mut self, rec: &ReplayRec<A>) {
        if self.det_fired.contains(&rec.p.index()) {
            return;
        }
        let mut state = rec.before.clone();
        let result = self.alg.step(&mut state, &Neighborhood::new(&rec.view));
        let same_return = match (&result, &rec.returned) {
            (Step::Continue, None) => true,
            (Step::Return(o), Some(o2)) => o == o2,
            _ => false,
        };
        if state != rec.after || !same_return {
            self.emit(
                Diagnostic::new(
                    RuleId::Snap,
                    &self.spec.name,
                    format!(
                        "replaying the step of process {} (recorded at t={}) after later \
                         activity changed its outcome — the step reads hidden state \
                         outside its snapshot view",
                        rec.p, rec.t
                    ),
                )
                .process(rec.p.index())
                .time(rec.t),
            );
        }
    }
}

impl<'a, A> ExecObserver<A> for LintObserver<'a, A>
where
    A: Algorithm,
    A::State: PartialEq,
{
    fn on_before_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
    ) {
        // Deferred replays of strictly earlier steps (FTC-SNAP-002).
        while self
            .replays
            .front()
            .is_some_and(|r| r.t < t || self.replays.len() > REPLAY_CAP)
        {
            let rec = self.replays.pop_front().expect("front checked");
            self.replay_check(&rec);
        }

        // Prospective registers of everyone, for the SWMR check.
        self.expected_pub = states.iter().map(|s| self.alg.publish(s)).collect();

        // Determinism probe: the same step twice, on clones.
        let mut c1 = states[p.index()].clone();
        let r1 = self.alg.step(&mut c1, &Neighborhood::new(view));
        let mut c2 = states[p.index()].clone();
        let r2 = self.alg.step(&mut c2, &Neighborhood::new(view));
        if c1 != c2 || r1 != r2 {
            self.det_fired.insert(p.index());
            self.emit(
                Diagnostic::new(
                    RuleId::Det,
                    &self.spec.name,
                    format!(
                        "two runs of the step of process {p} from the same state and \
                         view diverged (post-states {}, results {})",
                        if c1 == c2 { "agree" } else { "differ" },
                        if r1 == r2 { "agree" } else { "differ" },
                    ),
                )
                .process(p.index())
                .time(t),
            );
        }
        self.probe = Some((c1, r1));
        self.pending_before = Some(states[p.index()].clone());
    }

    fn on_after_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
        returned: Option<&A::Output>,
    ) {
        // FTC-SWMR-001: did p's step change anyone else's prospective
        // register?
        let foreign_writes: Vec<usize> = self
            .expected_pub
            .iter()
            .enumerate()
            .filter(|&(q, expected)| q != p.index() && self.alg.publish(&states[q]) != *expected)
            .map(|(q, _)| q)
            .collect();
        for q in foreign_writes {
            self.emit(
                Diagnostic::new(
                    RuleId::Swmr,
                    &self.spec.name,
                    format!(
                        "the step of process {p} changed the prospective register \
                         of process {q} — a write outside its own register"
                    ),
                )
                .process(p.index())
                .time(t),
            );
        }

        // Probe-vs-real comparison: if the probe runs agreed with each
        // other but not with the real run, running the step an extra
        // time perturbed hidden state (FTC-SNAP-002 territory).
        if let Some((probe_state, probe_result)) = self.probe.take() {
            let real_matches = match (&probe_result, returned) {
                (Step::Continue, None) => probe_state == states[p.index()],
                (Step::Return(o), Some(o2)) => *o == *o2 && probe_state == states[p.index()],
                _ => false,
            };
            if !real_matches && !self.det_fired.contains(&p.index()) {
                self.emit(
                    Diagnostic::new(
                        RuleId::Snap,
                        &self.spec.name,
                        format!(
                            "the probe run of process {p}'s step disagrees with the \
                             real run despite identical state and view — hidden \
                             mutable state outside the snapshot"
                        ),
                    )
                    .process(p.index())
                    .time(t),
                );
            }
        }

        if let Some(o) = returned {
            // FTC-PAL-004: the decided color is inside the palette.
            if let Some((palette, color_of)) = &self.spec.palette {
                let color = color_of(o);
                if color >= *palette {
                    self.emit(
                        Diagnostic::new(
                            RuleId::Pal,
                            &self.spec.name,
                            format!(
                                "process {p} returned color {color}, outside the \
                                 declared palette of {palette} colors"
                            ),
                        )
                        .process(p.index())
                        .time(t),
                    );
                }
            }

            // FTC-STAB-003a: the register must not regress at decision
            // time — publish(post-decision state) must equal the
            // register written in phase 1 of this very round.
            if self.alg.publish(&states[p.index()]) != self.expected_pub[p.index()] {
                self.emit(
                    Diagnostic::new(
                        RuleId::Stab,
                        &self.spec.name,
                        format!(
                            "process {p} decided with a register different from the \
                             one it published this round — neighbors can never read \
                             the deciding value (register regression)"
                        ),
                    )
                    .process(p.index())
                    .time(t),
                );
            }

            // FTC-STAB-003b: re-activating a decided process must
            // reproduce the same decision.
            let mut post = states[p.index()].clone();
            match self.alg.step(&mut post, &Neighborhood::new(view)) {
                Step::Return(o2) if o2 == *o => {}
                Step::Return(_) => self.emit(
                    Diagnostic::new(
                        RuleId::Stab,
                        &self.spec.name,
                        format!(
                            "process {p} re-activated after deciding returns a different color"
                        ),
                    )
                    .process(p.index())
                    .time(t),
                ),
                Step::Continue => self.emit(
                    Diagnostic::new(
                        RuleId::Stab,
                        &self.spec.name,
                        format!("process {p} re-activated after deciding un-decides (Continue)"),
                    )
                    .process(p.index())
                    .time(t),
                ),
            }
        }

        // Queue the step for deferred replay.
        if let Some(before) = self.pending_before.take() {
            self.replays.push_back(ReplayRec {
                t,
                p,
                before,
                view: view.to_vec(),
                after: states[p.index()].clone(),
                returned: returned.cloned(),
            });
        }
    }
}

/// Runs the full abstract-contract rule set on one (algorithm, instance)
/// pair: a battery of schedules (synchronous, round-robin, seeded random
/// subsets, seeded random + one crash) under the instrumenting observer,
/// plus the solo wait-freedom audit. Returns waiver-annotated
/// diagnostics, the first `MAX_PER_RULE` of each rule.
pub fn lint_algorithm<A>(
    alg: &A,
    spec: &ContractSpec<A::Output>,
    topo: &Topology,
    inputs: &[A::Input],
) -> Vec<Diagnostic>
where
    A: Algorithm,
    A::Input: Clone,
    A::State: PartialEq,
{
    let mut sink = DiagSink::default();
    let n = topo.len();

    let mut battery = |schedule: Box<dyn Schedule>| {
        let mut obs = LintObserver::new(alg, spec);
        let mut exec = Execution::new(alg, topo, inputs.to_vec());
        // Fuel exhaustion and crashes are not contract violations here:
        // the safety rules were checked at every step along the way.
        let _ = exec.run_observed(schedule, FUEL, &mut obs);
        sink.extend(obs.finish());
    };

    battery(Box::new(Synchronous::new()));
    battery(Box::new(RoundRobin::new()));
    for seed in SEEDS {
        battery(Box::new(RandomSubset::new(seed, 0.5)));
        let crash_p = ProcessId(seed as usize % n);
        battery(Box::new(CrashPlan::new(
            RandomSubset::new(seed, 0.6),
            [(crash_p, 2 + seed % 3)],
        )));
    }

    // FTC-WF-006: the solo audit. Each process runs alone against
    // forever-⊥ neighbors and must return within the declared bound;
    // the observer stays attached so the per-step rules also see solo
    // executions.
    if let Some(bound) = spec.solo_bound {
        for p in topo.nodes() {
            let mut obs = LintObserver::new(alg, spec);
            let mut exec = Execution::new(alg, topo, inputs.to_vec());
            let mut rounds = 0u64;
            let returned = loop {
                if rounds >= bound {
                    break false;
                }
                exec.step_with_observed(&ActivationSet::solo(p), &mut obs);
                rounds += 1;
                if exec.outputs()[p.index()].is_some() {
                    break true;
                }
            };
            if !returned {
                sink.push(
                    Diagnostic::new(
                        RuleId::Wf,
                        &spec.name,
                        format!(
                            "solo execution of process {p} did not return within the \
                             declared bound of {bound} rounds — not wait-free"
                        ),
                    )
                    .process(p.index()),
                );
            }
            sink.extend(obs.finish());
        }
    }

    sink.finish(spec)
}
