//! `ftcolor certify` — static contract certification by per-process
//! abstract interpretation over the view lattice.
//!
//! The dynamic linter ([`crate::linter`]) observes concrete executions,
//! so its guarantees are only as strong as the schedules it samples. The
//! certifier closes that gap for the rules that are *local*: a process's
//! behavior in one round depends only on its own state and the register
//! values it reads, so driving the algorithm's real
//! [`Algorithm::step`] over **every**
//! `(state, view)` pair of a certified finite abstraction — a
//! [`ViewDomain`] — yields the complete local transition system, and a
//! property proved on that graph holds in every concrete execution the
//! domain over-approximates, crashes and adversarial scheduling
//! included.
//!
//! ## What one certification run does
//!
//! 1. **Explore** ([`explore`]): starting from the domain's abstract
//!    initial states, compute the least fixpoint of
//!    `step` under all views over `{⊥} ∪ images(reachable publishes)`.
//!    Each transition is simultaneously checked for determinism
//!    (`FTC-DET-005`, a double probe), foreign register writes
//!    (`FTC-SWMR-001`, publish-probing all initial states around the
//!    step), palette escapes (`FTC-PAL-004`), and decision stability
//!    (`FTC-STAB-003`: the deciding step's register must not regress,
//!    and re-stepping the decided state must re-return the same output).
//!    A bounded journal of transitions is replayed afterwards to expose
//!    state smuggled around the register abstraction (`FTC-SNAP-002`).
//! 2. **Terminate** ([`term`]): from every reachable undecided state,
//!    run the process solo against every *frozen* view; a lasso (state
//!    revisit) before a decision is a wait-freedom violation no finite
//!    schedule sample can prove absent (`FTC-TERM-007`). The maximum
//!    number of steps to a decision over all such runs is a
//!    machine-checked solo bound.
//! 3. **Contain**: any state escaping the domain (widening breach or a
//!    blown exploration cap) is `FTC-DOM-008` — reported, never
//!    silently absorbed.
//!
//! The [`registry`] wires every shipped algorithm to its certified
//! domain from `ftcolor_core::domains`, with waivers for the documented
//! exceptions (the MIS candidates genuinely livelock solo — that is
//! Property 2.1, the paper's impossibility exhibit — and the synchronous
//! baselines have no certifiable per-process domain).

pub mod explore;
pub mod registry;
pub mod term;

use ftcolor_model::domain::ViewDomain;
use ftcolor_model::Algorithm;
use serde::Serialize;

use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic};

/// Size and outcome counters for one certification run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CertStats {
    /// Distinct abstract states reached (decided states included).
    pub reachable_states: usize,
    /// Reachable states that are post-decision.
    pub decided_states: usize,
    /// Abstract transitions executed during exploration.
    pub transitions: u64,
    /// Distinct view-side register values in the fixpoint lattice.
    pub view_regs: usize,
    /// Post-step states projected back into the universe by widening.
    pub widenings: u64,
    /// Machine-checked solo bound: the maximum steps-to-decision over
    /// every solo run from every reachable state (`None` when the
    /// termination pass found a livelock or was skipped).
    pub solo_bound: Option<u64>,
    /// `true` when a cap fired and the transition system is incomplete
    /// (always accompanied by an `FTC-DOM-008` diagnostic).
    pub truncated: bool,
}

/// The result of certifying one algorithm over one domain.
pub struct Certification<A: Algorithm> {
    /// Every reachable abstract state, in discovery order.
    pub states: Vec<A::State>,
    /// `decided[i]` — `states[i]` is only reached by deciding steps.
    pub decided: Vec<bool>,
    /// All findings, waived ones included (and marked).
    pub diagnostics: Vec<Diagnostic>,
    /// Size and outcome counters.
    pub stats: CertStats,
}

impl<A: Algorithm> Certification<A>
where
    A::State: Eq,
{
    /// `true` when `s` is in the statically computed reachable set.
    /// (Callers projecting concrete states should go through
    /// [`ViewDomain::project_state`] first.)
    pub fn contains(&self, s: &A::State) -> bool {
        self.states.iter().any(|t| t == s)
    }

    /// Diagnostics that count against the gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.waived)
    }
}

/// Certifies `alg` over `domain`: explores the complete abstract local
/// transition system, checks every per-step contract on every
/// transition, runs the solo-termination pass, and returns the reachable
/// set plus all diagnostics (with `spec`'s waivers applied).
pub fn certify_algorithm<A>(
    alg: &A,
    spec: &ContractSpec<A::Output>,
    domain: &ViewDomain<A>,
) -> Certification<A>
where
    A: Algorithm,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    let mut sink = DiagSink::default();
    let explored = explore::explore(alg, spec, domain, &mut sink);

    let solo_bound = if explored.truncated {
        None // an incomplete graph proves nothing about termination
    } else {
        term::term_pass(alg, spec, domain, &explored, &mut sink)
    };

    let stats = CertStats {
        reachable_states: explored.states.len(),
        decided_states: explored.decided.iter().filter(|&&d| d).count(),
        transitions: explored.transitions,
        view_regs: explored.regs.len(),
        widenings: explored.widenings,
        solo_bound,
        truncated: explored.truncated,
    };

    Certification {
        states: explored.states,
        decided: explored.decided,
        diagnostics: sink.finish(spec),
        stats,
    }
}
