//! Property: attaching an [`ExecObserver`] never changes an execution.
//!
//! The contract linter rides on the abstract executor's observation
//! hooks, so its evidence is only as good as this guarantee: the
//! instrumented executor must produce *bit-identical* traces to the
//! plain one on arbitrary schedules. We run every schedule three ways —
//! plain `run`, observed with the no-op `()`, and observed with a
//! recorder that formats every hook payload — and demand identical
//! reports, plus identical recorder traces across repeated runs.
//!
//! The executor steps an [`ActivationSet::All`] by walking its working
//! list in place rather than through a resolved copy; a second family
//! of properties runs the same synchronous schedules with every `All`
//! spelled out as the explicit working list and demands identical
//! recorder traces, reports and recorded activation sets.

use ftcolor::model::{inputs, Topology};
use ftcolor::prelude::*;
use proptest::prelude::*;

/// Records every observation as a formatted line; two runs are
/// "bit-identical" iff their recorded traces compare equal.
#[derive(Default)]
struct Recorder {
    trace: Vec<String>,
}

impl<A: Algorithm> ExecObserver<A> for Recorder {
    fn on_write(&mut self, t: Time, p: ProcessId, states: &[A::State], regs: &[Option<A::Reg>]) {
        self.trace.push(format!("w {t} {p} {states:?} {regs:?}"));
    }

    fn on_before_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
    ) {
        self.trace.push(format!("b {t} {p} {states:?} {view:?}"));
    }

    fn on_after_update(
        &mut self,
        t: Time,
        p: ProcessId,
        states: &[A::State],
        view: &[Option<A::Reg>],
        returned: Option<&A::Output>,
    ) {
        self.trace
            .push(format!("a {t} {p} {states:?} {view:?} {returned:?}"));
    }

    fn on_step_end(
        &mut self,
        t: Time,
        active: &[ProcessId],
        states: &[A::State],
        regs: &[Option<A::Reg>],
    ) {
        self.trace
            .push(format!("e {t} {active:?} {states:?} {regs:?}"));
    }
}

/// Runs `alg` three ways on the same instance/schedule and checks the
/// equivalences; returns the recorder trace for cross-run comparison.
fn run_three_ways<A>(
    alg: &A,
    n: usize,
    ids: &[u64],
    seed: u64,
    density: f64,
) -> Result<Vec<String>, TestCaseError>
where
    A: Algorithm<Input = u64>,
{
    let topo = Topology::cycle(n).expect("cycles need n >= 3 nodes");
    let fuel = 100_000;

    let mut plain = Execution::new(alg, &topo, ids.to_vec());
    let plain_report = plain.run(RandomSubset::new(seed, density), fuel);

    let mut noop = Execution::new(alg, &topo, ids.to_vec());
    let noop_report = noop.run_observed(RandomSubset::new(seed, density), fuel, &mut ());

    let mut rec = Recorder::default();
    let mut observed = Execution::new(alg, &topo, ids.to_vec());
    let observed_report = observed.run_observed(RandomSubset::new(seed, density), fuel, &mut rec);

    // Reports agree bit-for-bit (errors compared via their rendering).
    let fmt = |r: &Result<ExecutionReport<A::Output>, ModelError>| format!("{r:?}");
    prop_assert_eq!(fmt(&plain_report), fmt(&noop_report));
    prop_assert_eq!(fmt(&plain_report), fmt(&observed_report));
    // So do the final visible machine states.
    prop_assert_eq!(plain.outputs(), observed.outputs());
    prop_assert_eq!(plain.registers(), observed.registers());
    prop_assert_eq!(plain.time(), observed.time());
    Ok(rec.trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn observation_is_free_for_alg1(
        n_pick in 0usize..2,
        idseed in 0u64..1000,
        schedseed in 0u64..1000,
        density_pct in 20u64..90,
    ) {
        let n = if n_pick == 0 { 5 } else { 8 };
        let ids = inputs::random_unique(n, 1000, idseed);
        let density = density_pct as f64 / 100.0;
        let t1 = run_three_ways(&SixColoring, n, &ids, schedseed, density)?;
        let t2 = run_three_ways(&SixColoring, n, &ids, schedseed, density)?;
        prop_assert_eq!(t1, t2, "recorder traces differ across identical runs");
    }

    #[test]
    fn observation_is_free_for_alg2p(
        n_pick in 0usize..2,
        idseed in 0u64..1000,
        schedseed in 0u64..1000,
        density_pct in 20u64..90,
    ) {
        let n = if n_pick == 0 { 5 } else { 8 };
        let ids = inputs::random_unique(n, 1000, idseed);
        let density = density_pct as f64 / 100.0;
        let t1 = run_three_ways(&FiveColoringPatched, n, &ids, schedseed, density)?;
        let t2 = run_three_ways(&FiveColoringPatched, n, &ids, schedseed, density)?;
        prop_assert_eq!(t1, t2, "recorder traces differ across identical runs");
    }
}

/// `inner` with every [`ActivationSet::All`] spelled out as the explicit
/// working list, which the executor steps through a resolved copy.
struct Spelled<S>(S);

impl<S: Schedule> Schedule for Spelled<S> {
    fn next(&mut self, t: Time, working: &[ProcessId]) -> Option<ActivationSet> {
        self.0.next(t, working).map(|set| match set {
            ActivationSet::All => ActivationSet::of(working.to_vec()),
            only => only,
        })
    }
}

/// One recorded, observed run of `alg` under `schedule`: recorder
/// trace, report and recorded activation sets, all rendered.
fn observed_run<A: Algorithm<Input = u64>>(
    alg: &A,
    ids: &[u64],
    schedule: impl Schedule,
) -> (Vec<String>, String, Vec<ActivationSet>) {
    let topo = Topology::cycle(ids.len()).expect("cycles need n >= 3 nodes");
    let mut rec = Recorder::default();
    let mut exec = Execution::new(alg, &topo, ids.to_vec());
    exec.record_trace(true);
    let report = exec.run_observed(schedule, 10_000, &mut rec);
    (rec.trace, format!("{report:?}"), exec.recorded().to_vec())
}

/// Synchronous runs — clean, and with a crash overlay that turns `All`
/// into explicit survivor lists from its crash time on — observed
/// identically whether `All` steps in place or as an explicit list.
fn check_in_place_all<A: Algorithm<Input = u64>>(
    alg: &A,
    ids: &[u64],
    victim: usize,
    crash_at: Time,
) -> Result<(), TestCaseError> {
    let crash = || [(ProcessId(victim), crash_at)];
    let in_place = observed_run(alg, ids, Synchronous::new());
    let spelled = observed_run(alg, ids, Spelled(Synchronous::new()));
    prop_assert_eq!(&in_place, &spelled);
    let in_place = observed_run(alg, ids, CrashPlan::new(Synchronous::new(), crash()));
    let spelled = observed_run(
        alg,
        ids,
        Spelled(CrashPlan::new(Synchronous::new(), crash())),
    );
    prop_assert_eq!(&in_place, &spelled);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_steps_in_place_observe_like_explicit_lists(
        n in 3usize..9,
        idseed in 0u64..1000,
        victim in 0usize..9,
        crash_at in 1u64..5,
    ) {
        let ids = inputs::random_unique(n, 1000, idseed);
        let victim = victim % n;
        check_in_place_all(&SixColoring, &ids, victim, crash_at)?;
        check_in_place_all(&FiveColoringPatched, &ids, victim, crash_at)?;
        check_in_place_all(&FastFiveColoringPatched, &ids, victim, crash_at)?;
    }
}
