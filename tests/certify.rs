//! CI gate for `ftcolor certify`: every registry entry certifies clean
//! (or carries an explicit waived finding — never a silent skip), every
//! static rule has a mutant fixture that triggers it, and the JSON
//! report is byte-deterministic.
//!
//! The heavy registry entries (alg2p, alg3, alg3p — hundreds of
//! thousands to millions of abstract transitions) are gated on release
//! builds: CI runs `cargo test --release`, where they take seconds.

use ftcolor::analyze::{
    certify_algorithm, lint_algorithm, render_cert_json, ContractSpec, Diagnostic, RuleId,
};
use ftcolor::core::mutants::{
    NdState, NeighborWriter, NondetStepper, NwState, OpState, OutOfPalette, SdState, SlState,
    SmState, SoloDiverger, SoloLoiterer, StateSmuggler, UcState, UdState, UnboundedCounter,
    UnstableDecider,
};
use ftcolor::model::{inputs, Algorithm, Projection, Topology, ViewDomain};
use ftcolor::net::trace::fnv1a;

fn rules_fired(diags: &[Diagnostic]) -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// The mutants' shared contract: 5-color palette, like `tests/analyze.rs`.
fn mutant_spec() -> ContractSpec<u64> {
    ContractSpec::new("mutant").palette(5, |&c: &u64| c)
}

/// Certifies a mutant over a hand-built domain and returns the fired
/// rule set (waived or not — mutant specs waive nothing).
fn certify_mutant<A>(alg: &A, domain: &ViewDomain<A>) -> Vec<RuleId>
where
    A: Algorithm<Output = u64>,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    let cert = certify_algorithm(alg, &mutant_spec(), domain);
    rules_fired(&cert.diagnostics)
}

/// Dynamically lints a mutant with explicit inputs on C5 (the
/// `tests/analyze.rs` idiom) — used to show the two new mutants are
/// invisible to every dynamic rule.
fn lint_clean<A>(alg: &A, ids: Vec<u64>) -> Vec<RuleId>
where
    A: Algorithm<Input = u64, Output = u64>,
    A::State: PartialEq,
{
    let topo = Topology::cycle(5).expect("cycles need n >= 3 nodes");
    let spec = ContractSpec::new("mutant")
        .palette(5, |&c: &u64| c)
        .solo_bound(4);
    rules_fired(&lint_algorithm(alg, &spec, &topo, &ids))
}

// ---------------------------------------------------------------------
// Negative fixtures: the six linter mutants, caught *statically*.
// ---------------------------------------------------------------------

#[test]
fn neighbor_writer_fires_swmr_statically() {
    // Three processes so the victim register (id + 1 mod n) is always a
    // probe; the view is irrelevant to its step, so images are empty.
    let domain: ViewDomain<NeighborWriter> = ViewDomain::new(2)
        .init_state(NwState {
            id: 0,
            x: 3,
            rounds: 0,
        })
        .init_state(NwState {
            id: 1,
            x: 8,
            rounds: 0,
        })
        .init_state(NwState {
            id: 2,
            x: 4,
            rounds: 0,
        })
        .neighbor_images(|_| vec![]);
    assert_eq!(
        certify_mutant(&NeighborWriter::new(3), &domain),
        vec![RuleId::Swmr]
    );
}

#[test]
fn state_smuggler_fires_snap_statically() {
    // Two inputs so the blackboard channel carries cross-state traffic
    // during the replay passes.
    let domain: ViewDomain<StateSmuggler> = ViewDomain::new(2)
        .init_state(SmState { x: 3, rounds: 0 })
        .init_state(SmState { x: 9, rounds: 0 })
        .neighbor_images(|_| vec![]);
    let rules = certify_mutant(&StateSmuggler::new(), &domain);
    assert!(rules.contains(&RuleId::Snap), "got {rules:?}");
    assert!(
        !rules.contains(&RuleId::Det),
        "the smuggler is built to evade the determinism double-probe; got {rules:?}"
    );
}

#[test]
fn unstable_decider_fires_stab_statically() {
    let domain: ViewDomain<UnstableDecider> = ViewDomain::new(2)
        .init_state(UdState { x: 3, seen: 0 })
        .neighbor_images(|_| vec![]);
    assert_eq!(
        certify_mutant(&UnstableDecider, &domain),
        vec![RuleId::Stab]
    );
}

#[test]
fn out_of_palette_fires_pal_statically() {
    let domain: ViewDomain<OutOfPalette> = ViewDomain::new(2)
        .init_state(OpState { x: 5 })
        .neighbor_images(|_| vec![]);
    assert_eq!(certify_mutant(&OutOfPalette, &domain), vec![RuleId::Pal]);
}

#[test]
fn nondet_stepper_fires_det_statically() {
    let domain: ViewDomain<NondetStepper> = ViewDomain::new(2)
        .init_state(NdState { x: 1, rounds: 0 })
        .neighbor_images(|_| vec![]);
    let rules = certify_mutant(&NondetStepper::new(42), &domain);
    assert!(rules.contains(&RuleId::Det), "got {rules:?}");
}

#[test]
fn the_certifier_keeps_four_findings_of_a_rule() {
    // Every initial state adds transitions, and nearly every transition
    // of NondetStepper fires FTC-DET-005.
    let domain = (0..16).fold(ViewDomain::new(2), |d, x| {
        d.init_state(NdState { x, rounds: 0 })
    });
    let domain = domain.neighbor_images(|_| vec![]);
    let cert = certify_algorithm(&NondetStepper::new(42), &mutant_spec(), &domain);
    assert!(cert.stats.transitions >= 16, "{:?}", cert.stats);
    let det = cert.diagnostics.iter().filter(|d| d.rule == RuleId::Det);
    assert_eq!(det.count(), 4);
}

#[test]
fn solo_diverger_fires_term_statically() {
    // The identity image keeps awake-neighbor views in the lattice, so
    // the termination pass sees the frozen all-bottom world it stalls in.
    let domain: ViewDomain<SoloDiverger> = ViewDomain::new(2)
        .init_state(SdState { x: 2 })
        .symmetric_views();
    assert_eq!(certify_mutant(&SoloDiverger, &domain), vec![RuleId::Term]);
}

// ---------------------------------------------------------------------
// The two statically-only mutants: dynamically invisible, statically
// caught.
// ---------------------------------------------------------------------

#[test]
fn solo_loiterer_fires_term_statically_but_lints_clean() {
    let domain: ViewDomain<SoloLoiterer> = ViewDomain::new(2)
        .init_state(SlState { x: 2 })
        .symmetric_views();
    assert_eq!(certify_mutant(&SoloLoiterer, &domain), vec![RuleId::Term]);
    // The dynamic linter's solo runs start cold (all-⊥ neighbors), where
    // the loiterer decides instantly — no dynamic rule fires.
    assert_eq!(
        lint_clean(&SoloLoiterer, inputs::random_unique(5, 100, 1)),
        vec![]
    );
}

#[test]
fn unbounded_counter_fires_dom_statically_but_lints_clean() {
    // Declared bound: the blocked-round counter may not pass 3. The
    // abstract view lattice contains the conflicting register (own
    // publish = 3 = x mod 5), so exploration drives c over the bound.
    let domain: ViewDomain<UnboundedCounter> = ViewDomain::new(2)
        .init_state(UcState { x: 3, c: 0 })
        .symmetric_views()
        .widen(|s: &mut UcState| {
            if s.c > 3 {
                Projection::Breach(format!("blocked-round counter escaped its bound: {s:?}"))
            } else {
                Projection::Inside
            }
        });
    let rules = certify_mutant(&UnboundedCounter, &domain);
    assert!(rules.contains(&RuleId::Dom), "got {rules:?}");
    // Conflict-free inputs (x mod 5 properly colors C5): the counter
    // never moves and every dynamic rule stays silent.
    assert_eq!(lint_clean(&UnboundedCounter, vec![0, 1, 2, 3, 9]), vec![]);
}

// ---------------------------------------------------------------------
// The positive gate: registry entries certify clean.
// ---------------------------------------------------------------------

use ftcolor::analyze::certify_alg;

/// The registry entries cheap enough for debug builds (the rest join in
/// release, where CI runs them).
const CHEAP: [&str; 8] = [
    "alg1",
    "alg2",
    "alg4",
    "cv",
    "renaming",
    "mis-localmax",
    "mis-eager",
    "mis-impatient",
];

#[test]
fn cheap_registry_entries_certify_clean() {
    for name in CHEAP {
        let report = certify_alg(name).expect("registry name");
        let bad: Vec<String> = report.unwaived().map(Diagnostic::render).collect();
        assert!(
            bad.is_empty(),
            "registry entry `{name}` has unwaived certify findings:\n{}",
            bad.join("\n")
        );
    }
}

#[test]
fn certified_entries_carry_machine_checked_solo_bounds() {
    for (name, bound) in [("alg1", 2), ("alg2", 2), ("alg4", 2), ("renaming", 2)] {
        let report = certify_alg(name).expect("registry name");
        assert_eq!(
            report.stats.solo_bound,
            Some(bound),
            "certified solo bound changed for `{name}`"
        );
        assert!(!report.stats.truncated, "`{name}` must reach its fixpoint");
        assert!(report.stats.reachable_states > 0);
    }
}

#[test]
fn waived_certify_findings_are_reported_not_silently_skipped() {
    // MIS solo starvation (Property 2.1) must be *visible* as a waived
    // FTC-TERM-007, not silently suppressed.
    let mis = certify_alg("mis-localmax").expect("registry name");
    assert!(
        mis.diagnostics
            .iter()
            .any(|d| d.rule == RuleId::Term && d.waived && d.waiver_reason.is_some()),
        "MIS solo starvation should surface as a waived FTC-TERM-007"
    );
    assert_eq!(mis.stats.solo_bound, None, "livelocks yield no solo bound");

    // ImpatientMis additionally shows its E7 unpublished-verdict flaw.
    let imp = certify_alg("mis-impatient").expect("registry name");
    assert!(
        imp.diagnostics
            .iter()
            .any(|d| d.rule == RuleId::Stab && d.waived),
        "ImpatientMis's E7 flaw should surface as a waived FTC-STAB-003"
    );

    // Entries with no certifiable domain carry an explicit waived
    // FTC-DOM-008 instead of disappearing from the report.
    for name in ["cv", "decoupled-ring"] {
        let report = certify_alg(name).expect("registry name");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == RuleId::Dom && d.waived && d.waiver_reason.is_some()),
            "uncertified entry `{name}` should carry an explicit waived FTC-DOM-008"
        );
        assert!(report.clean(), "waived entries still gate clean");
        assert_eq!(report.stats.reachable_states, 0);
    }
}

#[test]
fn cheap_certify_reports_are_byte_deterministic() {
    let reports = |names: &[&str]| {
        names
            .iter()
            .map(|n| certify_alg(n).expect("registry name"))
            .collect::<Vec<_>>()
    };
    let a = render_cert_json(&reports(&["alg1", "mis-localmax", "cv"]));
    let b = render_cert_json(&reports(&["alg1", "mis-localmax", "cv"]));
    assert_eq!(a, b, "certify JSON must be byte-identical across runs");
    assert_eq!(
        fnv1a(a.as_bytes()),
        0xd191_e720_679b_2c66,
        "certify JSON drifted"
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn full_registry_certifies_clean_and_deterministically() {
    use ftcolor::analyze::{certify_all, SHIPPED};

    let a = certify_all();
    for report in &a {
        let bad: Vec<String> = report.unwaived().map(Diagnostic::render).collect();
        assert!(
            bad.is_empty(),
            "registry entry `{}` has unwaived certify findings:\n{}",
            report.name,
            bad.join("\n")
        );
        // Certified or explicitly waived — never silently skipped.
        assert!(
            report.stats.reachable_states > 0
                || report.diagnostics.iter().any(|d| d.rule == RuleId::Dom),
            "entry `{}` was silently skipped",
            report.name
        );
    }
    assert_eq!(a.len(), SHIPPED.len(), "every registry entry is covered");

    let b = certify_all();
    assert_eq!(
        render_cert_json(&a),
        render_cert_json(&b),
        "full-registry certify JSON must be byte-identical across runs"
    );
    // The bytes `ftcolor certify --alg all --format json` prints.
    assert_eq!(
        fnv1a(render_cert_json(&a).as_bytes()),
        0xacd7_1dbc_d2be_104b,
        "full-registry certify JSON drifted"
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn heavy_entries_certify_with_expected_solo_bounds() {
    for (name, bound) in [("alg2p", 3), ("alg3", 2), ("alg3p", 3)] {
        let report = certify_alg(name).expect("registry name");
        assert!(report.clean(), "`{name}` has unwaived certify findings");
        assert_eq!(
            report.stats.solo_bound,
            Some(bound),
            "certified solo bound changed for `{name}`"
        );
        assert!(!report.stats.truncated);
    }
}
