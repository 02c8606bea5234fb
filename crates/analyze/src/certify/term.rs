//! `FTC-TERM-007` — the static solo-termination pass.
//!
//! The dynamic wait-freedom rule (`FTC-WF-006`) runs each process solo
//! *from its initial state* and checks it decides within the declared
//! bound. That misses algorithms that terminate from a cold start but
//! can be driven — by real concurrency — into a *reachable* state from
//! which a solo run never decides (the crash-tolerance failure mode the
//! paper's model makes primary: every other process may crash at any
//! point, and the survivor must still finish).
//!
//! This pass closes that hole: for **every** reachable undecided
//! abstract state and **every** frozen view over the final register
//! lattice (a crashed world never writes again, so the view really is
//! frozen), iterate `step` until the process decides or revisits a
//! state. A revisit without a decision is a lasso — a solo livelock no
//! finite schedule sample can prove absent. Because widening keeps the
//! state space finite, every non-deciding run lassoes; the fuel bound
//! is only a backstop. The maximum steps-to-decision over all runs is
//! returned as a machine-checked solo bound.

use ftcolor_model::domain::{Projection, ViewDomain};
use ftcolor_model::{Algorithm, Neighborhood, Step};

use super::explore::Explored;
use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic, RuleId};

/// Solo-run fuel: a lasso almost always triggers first, so fuel is only
/// the backstop for runs whose states keep growing.
const TERM_FUEL: u64 = 512;

/// Outcome of one solo run under a frozen view.
enum Solo {
    Decided(u64),
    Lasso(u64),
    FuelOut,
    Breach(String),
}

/// Runs the termination pass over the explored transition system.
/// Returns the machine-checked solo bound, or `None` when any solo run
/// fails to decide.
pub(crate) fn term_pass<A>(
    alg: &A,
    spec: &ContractSpec<A::Output>,
    domain: &ViewDomain<A>,
    ex: &Explored<A>,
    sink: &mut DiagSink,
) -> Option<u64>
where
    A: Algorithm,
    A::State: Eq,
{
    let d = domain.degree();
    let symmetric = domain.views_are_symmetric();
    let m = ex.regs.len();
    let mut worst: u64 = 0;
    let mut livelock = false;

    for (si, s) in ex.states.iter().enumerate() {
        if ex.decided[si] {
            continue;
        }
        let mut idx = vec![0usize; d];
        'odometer: loop {
            if !symmetric || idx.windows(2).all(|w| w[0] <= w[1]) {
                let view: Vec<Option<A::Reg>> = idx
                    .iter()
                    .map(|&i| (i > 0).then(|| ex.regs[i - 1].clone()))
                    .collect();
                for variant in domain.variants_for(s, &view) {
                    match solo_run(alg, domain, variant, &view) {
                        Solo::Decided(steps) => worst = worst.max(steps),
                        Solo::Lasso(steps) => {
                            livelock = true;
                            sink.push(Diagnostic::new(
                                RuleId::Term,
                                &spec.name,
                                format!(
                                    "solo run from reachable state {s:?} under frozen view \
                                     {view:?} revisits its state after {steps} steps without \
                                     deciding (solo livelock)"
                                ),
                            ));
                        }
                        Solo::FuelOut => {
                            livelock = true;
                            sink.push(Diagnostic::new(
                                RuleId::Term,
                                &spec.name,
                                format!(
                                    "solo run from reachable state {s:?} under frozen view \
                                     {view:?} did not decide within {TERM_FUEL} steps"
                                ),
                            ));
                        }
                        Solo::Breach(msg) => {
                            sink.push(Diagnostic::new(
                                RuleId::Dom,
                                &spec.name,
                                format!("solo run escapes the certified domain: {msg}"),
                            ));
                        }
                    }
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

    if livelock {
        None
    } else {
        Some(worst)
    }
}

/// Iterates `step` under a frozen view until a decision, a state
/// revisit, a widening breach, or fuel exhaustion. States are widened
/// (so the trail stays inside the finite universe) but *not*
/// canonicalized — a stored last-view must keep its concrete value, or
/// frozen-view comparisons would be falsified.
fn solo_run<A>(alg: &A, domain: &ViewDomain<A>, start: A::State, view: &[Option<A::Reg>]) -> Solo
where
    A: Algorithm,
    A::State: Eq,
{
    let nb = Neighborhood::new(view);
    let mut cur = start;
    let mut trail: Vec<A::State> = Vec::new();
    let mut steps: u64 = 0;
    loop {
        if trail.contains(&cur) {
            return Solo::Lasso(steps);
        }
        trail.push(cur.clone());
        steps += 1;
        match alg.step(&mut cur, &nb) {
            Step::Return(_) => return Solo::Decided(steps),
            Step::Continue => {
                if let Projection::Breach(msg) = domain.widen_state(&mut cur) {
                    return Solo::Breach(msg);
                }
                if steps >= TERM_FUEL {
                    return Solo::FuelOut;
                }
            }
        }
    }
}
