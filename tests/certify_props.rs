//! Soundness cross-check for `ftcolor certify`: the statically computed
//! reachable set must *contain* every state a real execution visits.
//!
//! Each certified domain ships a concrete→abstract projection
//! (`ViewDomain::project_state`); this suite runs the executor under
//! random schedules on C3..C6, records every per-process state an
//! [`ExecObserver`] sees, projects each into the abstract universe, and
//! asserts membership in the certification's reachable set. A state the
//! abstraction misses would make every "proved on the abstract graph"
//! claim vacuous — this is the test that keeps the certifier honest.

use std::collections::HashSet;
use std::sync::OnceLock;

use ftcolor::analyze::{certify_algorithm, Certification, ContractSpec};
use ftcolor::core::domains;
use ftcolor::model::{inputs, ViewDomain};
use ftcolor::prelude::*;
use proptest::prelude::*;

/// Records every state a process holds right before and right after
/// each of its updates (initial states included — the first
/// `on_before_update` of a process sees its untouched init).
struct StateCollector<S> {
    seen: Vec<S>,
}

impl<A: Algorithm> ExecObserver<A> for StateCollector<A::State> {
    fn on_before_update(
        &mut self,
        _t: Time,
        p: ProcessId,
        states: &[A::State],
        _view: &[Option<A::Reg>],
    ) {
        self.seen.push(states[p.index()].clone());
    }

    fn on_after_update(
        &mut self,
        _t: Time,
        p: ProcessId,
        states: &[A::State],
        _view: &[Option<A::Reg>],
        _returned: Option<&A::Output>,
    ) {
        self.seen.push(states[p.index()].clone());
    }
}

/// Runs `alg` on the cycle under a random-subset schedule and returns
/// every distinct observed state.
fn observed_states<A>(alg: &A, ids: Vec<u64>, seed: u64) -> HashSet<A::State>
where
    A: Algorithm<Input = u64>,
    A::State: Eq + std::hash::Hash,
{
    let n = ids.len();
    let topo = Topology::cycle(n).expect("cycles need n >= 3 nodes");
    let mut exec = Execution::new(alg, &topo, ids);
    let mut collector = StateCollector { seen: Vec::new() };
    exec.run_observed(RandomSubset::new(seed, 0.45), 1_000_000, &mut collector)
        .expect("shipped algorithms terminate under fair schedules");
    collector.seen.into_iter().collect()
}

/// Asserts that every observed state projects into the certification's
/// reachable set.
fn assert_contained<A>(
    cert: &Certification<A>,
    domain: &ViewDomain<A>,
    observed: &HashSet<A::State>,
) -> Result<(), TestCaseError>
where
    A: Algorithm,
    A::State: Eq + std::hash::Hash,
{
    for s in observed {
        let p = domain.project_state(s);
        prop_assert!(
            cert.contains(&p),
            "dynamically observed state {s:?} projects to {p:?}, \
             which the static reachable set misses"
        );
    }
    Ok(())
}

fn cert_alg1() -> &'static Certification<SixColoring> {
    static CERT: OnceLock<Certification<SixColoring>> = OnceLock::new();
    CERT.get_or_init(|| {
        let spec =
            ContractSpec::new("alg1").palette(PairColor::palette_size(2), PairColor::flat_index);
        let cert = certify_algorithm(&SixColoring, &spec, &domains::pair_domain());
        assert!(!cert.stats.truncated, "soundness needs the full fixpoint");
        cert
    })
}

fn cert_alg2p() -> &'static Certification<FiveColoringPatched> {
    static CERT: OnceLock<Certification<FiveColoringPatched>> = OnceLock::new();
    CERT.get_or_init(|| {
        let spec = ContractSpec::new("alg2p").palette(5, |&c: &u64| c);
        let cert = certify_algorithm(
            &FiveColoringPatched,
            &spec,
            &domains::five_coloring_patched_domain(5),
        );
        assert!(!cert.stats.truncated, "soundness needs the full fixpoint");
        cert
    })
}

#[cfg(not(debug_assertions))]
fn cert_alg3p() -> &'static Certification<FastFiveColoringPatched> {
    static CERT: OnceLock<Certification<FastFiveColoringPatched>> = OnceLock::new();
    CERT.get_or_init(|| {
        let spec = ContractSpec::new("alg3p").palette(5, |&c: &u64| c);
        let cert = certify_algorithm(
            &FastFiveColoringPatched,
            &spec,
            &domains::fast_five_patched_domain(5, 2),
        );
        assert!(!cert.stats.truncated, "soundness needs the full fixpoint");
        cert
    })
}

/// A random ring instance: size (C3..C6), identifier seed, schedule seed.
fn instance() -> impl Strategy<Value = (usize, u64, u64)> {
    (3usize..=6, 0u64..u64::MAX / 2, 0u64..10_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alg1_observed_states_are_statically_reachable((n, idseed, schedseed) in instance()) {
        let ids = inputs::random_unique(n, 1_000, idseed);
        let observed = observed_states(&SixColoring, ids, schedseed);
        assert_contained(cert_alg1(), &domains::pair_domain(), &observed)?;
    }

    #[test]
    fn alg2p_observed_states_are_statically_reachable((n, idseed, schedseed) in instance()) {
        let ids = inputs::random_unique(n, 1_000, idseed);
        let observed = observed_states(&FiveColoringPatched, ids, schedseed);
        assert_contained(cert_alg2p(), &domains::five_coloring_patched_domain(5), &observed)?;
    }

    // The alg3p certification explores ~10.9M abstract transitions —
    // seconds in release (where CI runs), minutes in debug.
    #[cfg(not(debug_assertions))]
    #[test]
    fn alg3p_observed_states_are_statically_reachable((n, _idseed, schedseed) in instance()) {
        // Remark 3.10 inputs: a proper 3-coloring (ids in 0..=2), matching
        // the domain's concrete identifier range.
        let ids = inputs::proper_k_coloring(n, 3);
        let observed = observed_states(&FastFiveColoringPatched, ids, schedseed);
        assert_contained(cert_alg3p(), &domains::fast_five_patched_domain(5, 2), &observed)?;
    }
}
