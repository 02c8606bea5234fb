//! The abstract-reachability fixpoint at the heart of `ftcolor certify`.
//!
//! Starting from the domain's abstract initial states, the explorer
//! repeatedly drives the algorithm's real `step` over every
//! `(state, view)` pair, where views are all degree-length tuples over
//! `{⊥} ∪ images(published registers of reachable states)`. New
//! post-step states enlarge the state set; their publishes enlarge the
//! view lattice; the loop runs to a least fixpoint (both sets are
//! finite by the domain's widening). An incremental cursor per state
//! (`seen`) makes each pass enumerate only views that involve at least
//! one register discovered since the state was last expanded, so the
//! fixpoint does no repeated work.
//!
//! Every transition doubles as a checkpoint for the per-step contracts
//! (determinism, SWMR, palette, stability — see the
//! [module docs](super)); a bounded journal of transitions is replayed
//! afterwards, out of recording order, to expose state smuggled around
//! the register abstraction (`FTC-SNAP-002`).

use std::collections::{HashMap, HashSet};

use ftcolor_model::domain::{Projection, ViewDomain};
use ftcolor_model::{Algorithm, Neighborhood, Step};

use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic, RuleId};

/// Abstract-state cap; exceeding it is an `FTC-DOM-008` finding.
const MAX_STATES: usize = 100_000;

/// Transition cap; exceeding it is an `FTC-DOM-008` finding.
const MAX_TRANSITIONS: u64 = 1_000_000_000;

/// How many transitions the snapshot-scope replay journal records.
const REPLAY_CAP: usize = 4096;

/// One recorded transition, for the deferred snapshot-scope replay.
struct JournalEntry<A: Algorithm> {
    pre: A::State,
    view: Vec<Option<A::Reg>>,
    post: A::State,
    out: Option<A::Output>,
}

/// The computed abstract transition system.
pub(crate) struct Explored<A: Algorithm> {
    pub states: Vec<A::State>,
    pub decided: Vec<bool>,
    pub regs: Vec<A::Reg>,
    pub transitions: u64,
    pub widenings: u64,
    pub truncated: bool,
}

/// Runs the exploration fixpoint plus the per-transition checks and the
/// deferred replay; diagnostics land in `sink`.
pub(crate) fn explore<A>(
    alg: &A,
    spec: &ContractSpec<A::Output>,
    domain: &ViewDomain<A>,
    sink: &mut DiagSink,
) -> Explored<A>
where
    A: Algorithm,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    let mut ex = Explorer {
        alg,
        spec,
        domain,
        sink,
        states: Vec::new(),
        index: HashMap::new(),
        decided: Vec::new(),
        seen: Vec::new(),
        regs: Vec::new(),
        reg_set: HashSet::new(),
        probes: Vec::new(),
        journal: Vec::new(),
        transitions: 0,
        widenings: 0,
        truncated: false,
    };
    ex.run();
    ex.replay();
    Explored {
        states: ex.states,
        decided: ex.decided,
        regs: ex.regs,
        transitions: ex.transitions,
        widenings: ex.widenings,
        truncated: ex.truncated,
    }
}

struct Explorer<'a, A: Algorithm> {
    alg: &'a A,
    spec: &'a ContractSpec<A::Output>,
    domain: &'a ViewDomain<A>,
    sink: &'a mut DiagSink,
    /// Reachable abstract states, in discovery order.
    states: Vec<A::State>,
    index: HashMap<A::State, usize>,
    decided: Vec<bool>,
    /// Per-state cursor: `Some(k)` = all views over `regs[0..k]` done.
    seen: Vec<Option<usize>>,
    /// The view-side register lattice, in discovery order.
    regs: Vec<A::Reg>,
    reg_set: HashSet<A::Reg>,
    /// Stand-ins for *other* processes: their publishes must be
    /// untouched by any step of this one (SWMR).
    probes: Vec<A::State>,
    journal: Vec<JournalEntry<A>>,
    transitions: u64,
    widenings: u64,
    truncated: bool,
}

impl<A> Explorer<'_, A>
where
    A: Algorithm,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    fn run(&mut self) {
        for s0 in self.domain.init_states() {
            self.probes.push(s0.clone());
            let mut s = s0.clone();
            match self.domain.widen_state(&mut s) {
                Projection::Breach(msg) => {
                    self.sink.push(Diagnostic::new(
                        RuleId::Dom,
                        &self.spec.name,
                        format!("initial state escapes the certified domain: {msg}"),
                    ));
                    continue;
                }
                Projection::Widened => self.widenings += 1,
                Projection::Inside => {}
            }
            self.domain.canonize(&mut s);
            self.insert_state(s, false);
        }
        loop {
            let mut progressed = false;
            let mut si = 0;
            while si < self.states.len() {
                if self.truncated {
                    return;
                }
                if self.decided[si] {
                    si += 1;
                    continue;
                }
                let m = self.regs.len();
                let prev = self.seen[si];
                if prev == Some(m) {
                    si += 1;
                    continue;
                }
                let state = self.states[si].clone();
                self.expand(&state, m, prev);
                self.seen[si] = Some(m);
                progressed = true;
                si += 1;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Enumerates every view tuple over `{⊥} ∪ regs[0..m]` that uses at
    /// least one register beyond the state's previous cursor, and steps
    /// the state under each. Index `0` encodes `⊥`, index `j ≥ 1`
    /// encodes `regs[j - 1]`.
    fn expand(&mut self, state: &A::State, m: usize, prev: Option<usize>) {
        let d = self.domain.degree();
        let symmetric = self.domain.views_are_symmetric();
        let mut idx = vec![0usize; d];
        'odometer: loop {
            let fresh = prev.is_none_or(|k| idx.iter().any(|&i| i > k));
            let canonical = !symmetric || idx.windows(2).all(|w| w[0] <= w[1]);
            if fresh && canonical {
                let view: Vec<Option<A::Reg>> = idx
                    .iter()
                    .map(|&i| (i > 0).then(|| self.regs[i - 1].clone()))
                    .collect();
                self.transition(state, &view);
                if self.truncated {
                    return;
                }
            }
            let mut p = 0;
            loop {
                if p == d {
                    break 'odometer;
                }
                idx[p] += 1;
                if idx[p] <= m {
                    continue 'odometer;
                }
                idx[p] = 0;
                p += 1;
            }
        }
    }

    /// Steps every per-view variant of `state` under `view`, running the
    /// per-transition contract checks around the real step.
    fn transition(&mut self, state: &A::State, view: &[Option<A::Reg>]) {
        for variant in self.domain.variants_for(state, view) {
            if self.transitions >= MAX_TRANSITIONS {
                self.truncate(format!(
                    "transition cap {MAX_TRANSITIONS} exhausted before the fixpoint; the domain \
                     is not certified"
                ));
                return;
            }
            self.transitions += 1;
            let nb = Neighborhood::new(view);

            // FTC-DET-005: two probe runs of the same (state, view) must
            // agree exactly.
            let mut probe_a = variant.clone();
            let out_a = self.alg.step(&mut probe_a, &nb);
            let mut probe_b = variant.clone();
            let out_b = self.alg.step(&mut probe_b, &nb);
            if probe_a != probe_b || out_a != out_b {
                self.sink.push(Diagnostic::new(
                    RuleId::Det,
                    &self.spec.name,
                    format!(
                        "stepping {variant:?} twice under the same view produced \
                         different results ({out_a:?} vs {out_b:?})"
                    ),
                ));
            }

            // FTC-SWMR-001: bracket the real step with publish probes of
            // every other process's initial state — a step that changes
            // what *they* publish wrote a register it doesn't own.
            let pre_probe: Vec<A::Reg> = self.probes.iter().map(|p| self.alg.publish(p)).collect();
            let mut post = variant.clone();
            let out = self.alg.step(&mut post, &nb);
            let post_probe: Vec<A::Reg> = self.probes.iter().map(|p| self.alg.publish(p)).collect();
            if pre_probe != post_probe {
                self.sink.push(Diagnostic::new(
                    RuleId::Swmr,
                    &self.spec.name,
                    format!(
                        "a step of {variant:?} changed what other processes publish \
                         (foreign register write)"
                    ),
                ));
            }

            if self.journal.len() < REPLAY_CAP {
                self.journal.push(JournalEntry {
                    pre: variant.clone(),
                    view: view.to_vec(),
                    post: post.clone(),
                    out: match &out {
                        Step::Return(o) => Some(o.clone()),
                        Step::Continue => None,
                    },
                });
            }

            self.settle(&variant, view, post, out);
        }
    }

    /// Post-step bookkeeping: palette and stability checks on deciding
    /// steps, then projection of the successor into the universe.
    fn settle(
        &mut self,
        pre: &A::State,
        view: &[Option<A::Reg>],
        post: A::State,
        out: Step<A::Output>,
    ) {
        match out {
            Step::Return(o) => {
                // FTC-PAL-004.
                if let Some((palette, color_of)) = &self.spec.palette {
                    let c = color_of(&o);
                    if c >= *palette {
                        self.sink.push(Diagnostic::new(
                            RuleId::Pal,
                            &self.spec.name,
                            format!(
                                "reachable deciding step emits color {c}, outside the \
                                 {palette}-color palette (from {pre:?})"
                            ),
                        ));
                    }
                }
                // FTC-STAB-003 (a): the deciding step must leave the
                // published register at the value neighbors already saw.
                if self.alg.publish(&post) != self.alg.publish(pre) {
                    self.sink.push(Diagnostic::new(
                        RuleId::Stab,
                        &self.spec.name,
                        format!(
                            "deciding step changed the published register \
                             ({pre:?} -> {post:?}): the deciding value was never visible"
                        ),
                    ));
                }
                // FTC-STAB-003 (b): re-activating a decided process must
                // re-return the same output.
                let nb = Neighborhood::new(view);
                let mut again = post.clone();
                match self.alg.step(&mut again, &nb) {
                    Step::Return(ref o2) if *o2 == o => {}
                    other => {
                        self.sink.push(Diagnostic::new(
                            RuleId::Stab,
                            &self.spec.name,
                            format!(
                                "re-activating decided state {post:?} produced {other:?} \
                                 instead of Return({o:?})"
                            ),
                        ));
                    }
                }
                self.absorb(post, true);
            }
            Step::Continue => self.absorb(post, false),
        }
    }

    /// Projects a successor into the universe and interns it.
    fn absorb(&mut self, mut s: A::State, is_decided: bool) {
        match self.domain.widen_state(&mut s) {
            Projection::Breach(msg) => {
                self.sink.push(Diagnostic::new(
                    RuleId::Dom,
                    &self.spec.name,
                    format!("reachable state escapes the certified domain: {msg}"),
                ));
                return;
            }
            Projection::Widened => self.widenings += 1,
            Projection::Inside => {}
        }
        self.domain.canonize(&mut s);
        self.insert_state(s, is_decided);
    }

    /// Interns a canonical state. A state reached both by deciding and
    /// by continuing steps counts as undecided (the weaker fact).
    fn insert_state(&mut self, s: A::State, is_decided: bool) {
        if let Some(&i) = self.index.get(&s) {
            if !is_decided && self.decided[i] {
                self.decided[i] = false;
            }
            return;
        }
        if self.states.len() >= MAX_STATES {
            self.truncate(format!(
                "state cap {MAX_STATES} exhausted before the fixpoint; the domain is not certified"
            ));
            return;
        }
        let reg = self.alg.publish(&s);
        for img in self.domain.images(&reg) {
            if self.reg_set.insert(img.clone()) {
                self.regs.push(img);
            }
        }
        self.index.insert(s.clone(), self.states.len());
        self.states.push(s);
        self.decided.push(is_decided);
        self.seen.push(None);
    }

    fn truncate(&mut self, msg: String) {
        if !self.truncated {
            self.truncated = true;
            self.sink
                .push(Diagnostic::new(RuleId::Dom, &self.spec.name, msg));
        }
    }

    /// FTC-SNAP-002: replays the journal *out of recording order*. A
    /// step may depend only on `(state, view)`, so re-executing it must
    /// reproduce the recorded successor and outcome no matter what ran
    /// in between. Pass 1 re-executes everything in reverse (driving any
    /// smuggled channel through a different write history); pass 2 then
    /// re-checks every deciding step's output against the recording.
    /// Suppressed entirely when determinism already failed — a nondet
    /// step explains any replay divergence.
    fn replay(&mut self) {
        if self.sink.fired(RuleId::Det) {
            return;
        }
        for e in self.journal.iter().rev() {
            let nb = Neighborhood::new(&e.view);
            let mut s = e.pre.clone();
            let out = match self.alg.step(&mut s, &nb) {
                Step::Return(o) => Some(o),
                Step::Continue => None,
            };
            if s != e.post || out != e.out {
                self.sink.push(Diagnostic::new(
                    RuleId::Snap,
                    &self.spec.name,
                    format!(
                        "replaying a recorded step of {:?} out of order diverged \
                         (got {out:?}, recorded {:?}): the step reads state outside \
                         its view",
                        e.pre, e.out
                    ),
                ));
            }
        }
        for e in &self.journal {
            let Some(recorded) = &e.out else { continue };
            let nb = Neighborhood::new(&e.view);
            let mut s = e.pre.clone();
            if let Step::Return(o) = self.alg.step(&mut s, &nb) {
                if o != *recorded {
                    self.sink.push(Diagnostic::new(
                        RuleId::Snap,
                        &self.spec.name,
                        format!(
                            "a recorded deciding step of {:?} re-returns {o:?} after \
                             unrelated steps ran, but recorded {recorded:?}: the \
                             decision reads state outside its view",
                            e.pre
                        ),
                    ));
                }
            }
        }
    }
}
