//! **E7 — Property 2.1.** MIS is not wait-free solvable on the
//! asynchronous cycle. We cannot run an impossibility, but we can run
//! its observable consequence: every natural candidate algorithm,
//! correct in the synchronous failure-free world, is broken here — the
//! model checker exhibits a safety violation or a starvation cycle for
//! each, and the strong-symmetry-breaking reduction of the paper's
//! proof maps the failures onto SSB, the problem whose impossibility
//! drives Property 2.1.

use ftcolor_checker::ssb::{ssb_outputs, ssb_violation};
use ftcolor_checker::ModelChecker;
use ftcolor_core::mis::{mis_violation, EagerMis, ImpatientMis, LocalMaxMis, MisOutput};
use ftcolor_model::prelude::*;
use serde::Serialize;

/// One candidate × instance verdict.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Candidate label.
    pub candidate: &'static str,
    /// Instance label.
    pub instance: String,
    /// Reachable configurations explored.
    pub configs: usize,
    /// Description of the safety violation, if found.
    pub safety_violation: Option<String>,
    /// Whether a starvation (livelock) cycle exists.
    pub livelock: bool,
    /// Whether the candidate failed in at least one way (the Property
    /// 2.1 prediction: this must be `true` for every candidate).
    pub fails: bool,
}

fn check<A>(candidate: &'static str, alg: &A, ids: Vec<u64>, jobs: usize) -> Row
where
    A: Algorithm<Input = u64, Output = MisOutput> + Sync,
    A::State: Eq + std::hash::Hash + Send + Sync,
    A::Reg: Eq + std::hash::Hash + Send + Sync,
{
    let topo = Topology::cycle(ids.len()).unwrap();
    let label = format!("C{} ids={ids:?}", ids.len());
    let mc = ModelChecker::new(alg, &topo, ids)
        .with_max_configs(2_000_000)
        .with_jobs(jobs);
    let o = mc.explore(mis_violation).unwrap();
    Row {
        candidate,
        instance: label,
        configs: o.configs,
        safety_violation: o.safety_violation.as_ref().map(|v| v.description.clone()),
        livelock: o.livelock.is_some(),
        fails: o.safety_violation.is_some() || o.livelock.is_some(),
    }
}

/// Model-checks all three candidates on C3 and C4 with `jobs` worker
/// threads (`0` = all CPUs); the verdicts are identical for every
/// thread count.
pub fn run(jobs: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for ids in [vec![1u64, 2, 3], vec![2, 7, 4, 9]] {
        rows.push(check("LocalMaxMis", &LocalMaxMis, ids.clone(), jobs));
        rows.push(check("EagerMis", &EagerMis, ids.clone(), jobs));
        rows.push(check("ImpatientMis", &ImpatientMis, ids, jobs));
    }
    rows
}

/// The SSB side of the reduction: run each candidate under a starvation
/// schedule and report the violated SSB condition (per the Property 2.1
/// proof, a correct MIS algorithm would make these executions satisfy
/// SSB — none does).
#[derive(Debug, Clone, Serialize)]
pub struct SsbRow {
    /// Candidate label.
    pub candidate: &'static str,
    /// The violated SSB condition.
    pub violation: String,
}

/// Runs the SSB demonstrations.
pub fn run_ssb() -> Vec<SsbRow> {
    let topo = Topology::cycle(3).unwrap();
    let mut rows = Vec::new();

    // LocalMaxMis: max activated once then crashed; others starve.
    let mut exec = Execution::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
    exec.step_with(&ActivationSet::solo(ProcessId(2)));
    for _ in 0..64 {
        exec.step_with(&ActivationSet::of([ProcessId(0), ProcessId(1)]));
    }
    rows.push(SsbRow {
        candidate: "LocalMaxMis",
        violation: ssb_violation(&ssb_outputs(exec.outputs())).unwrap_or_default(),
    });

    // ImpatientMis: verdicts are never published (the write precedes the
    // decision), so sequential solo wake-ups make *everyone* return In —
    // all terminated, nobody output 0: SSB condition 1 violated (and MIS
    // condition 2, spectacularly: the whole triangle is "independent").
    let mut exec2 = Execution::new(&ImpatientMis, &topo, vec![1, 2, 3]);
    exec2.step_with(&ActivationSet::solo(ProcessId(0)));
    exec2.step_with(&ActivationSet::solo(ProcessId(1)));
    exec2.step_with(&ActivationSet::solo(ProcessId(2)));
    rows.push(SsbRow {
        candidate: "ImpatientMis",
        violation: ssb_violation(&ssb_outputs(exec2.outputs())).unwrap_or_default(),
    });

    // EagerMis: the adjacent In/In execution breaks MIS safety, which
    // the SSB reduction does not even need — report the In/In itself.
    let topo4 = Topology::cycle(4).unwrap();
    let mut exec3 = Execution::new(&EagerMis, &topo4, vec![5, 9, 2, 1]);
    for set in FixedSequence::from_indices([vec![0], vec![1], vec![0], vec![1]]).sets() {
        exec3.step_with(set);
    }
    rows.push(SsbRow {
        candidate: "EagerMis",
        violation: mis_violation(&topo4, exec3.outputs()).unwrap_or_default(),
    });
    rows
}

/// Renders the E7 tables.
pub fn table(rows: &[Row], ssb: &[SsbRow]) -> String {
    let mut out = crate::common::render_table(
        "E7a (Property 2.1) — every MIS candidate fails under exhaustive search",
        &[
            "candidate",
            "instance",
            "configs",
            "safety violation",
            "livelock",
            "fails",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.candidate.to_string(),
                    r.instance.clone(),
                    r.configs.to_string(),
                    r.safety_violation.clone().unwrap_or_else(|| "-".into()),
                    if r.livelock {
                        "FOUND".into()
                    } else {
                        "none".into()
                    },
                    r.fails.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out.push('\n');
    out.push_str(&crate::common::render_table(
        "E7b — strong-symmetry-breaking reduction: witnessed violations",
        &["candidate", "violation"],
        &ssb.iter()
            .map(|r| vec![r.candidate.to_string(), r.violation.clone()])
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_candidate_fails() {
        let rows = run(0);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.fails, "Property 2.1 predicts failure: {r:?}");
        }
    }

    #[test]
    fn ssb_witnesses_are_nonempty() {
        for r in run_ssb() {
            assert!(!r.violation.is_empty(), "{r:?}");
        }
    }
}
