//! CI gate for `ftcolor-analyze`: every shipped algorithm passes the
//! full rule set clean, every analyzer rule has a mutant fixture that
//! triggers it (`crates/core/src/mutants.rs` for the linter rules,
//! hand-built event logs for the runtime rules), and the race detector
//! verifies atomic-snapshot linearization on the cross-substrate
//! conformance matrix.

use ftcolor::analyze::{
    analyze_alg, analyze_all, check_events, lint_algorithm, race_matrix, render_json, ContractSpec,
    Diagnostic, LintConfig, RuleId,
};
use ftcolor::core::mutants::{
    NeighborWriter, NondetStepper, OutOfPalette, SoloDiverger, StateSmuggler, UnstableDecider,
};
use ftcolor::model::{inputs, ProcessId, Topology};
use ftcolor::net::trace::fnv1a;
use ftcolor::runtime::{RtEvent, RtEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg() -> LintConfig {
    LintConfig::default()
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------------
// The positive gate: shipped algorithms are clean.
// ---------------------------------------------------------------------

#[test]
fn all_shipped_algorithms_pass_the_full_rule_set() {
    for report in analyze_all(&[5, 8], &cfg()) {
        let bad: Vec<String> = report.unwaived().map(Diagnostic::render).collect();
        assert!(
            bad.is_empty(),
            "shipped algorithm `{}` has unwaived diagnostics:\n{}",
            report.name,
            bad.join("\n")
        );
    }
}

#[test]
fn waivers_are_reported_not_silently_skipped() {
    // The two documented exemptions must still *fire* (marked waived):
    // silently skipping a waived rule would hide regressions behind it.
    let cv = analyze_alg("cv", &[5], &cfg()).expect("cv is a registry name");
    assert!(
        cv.diagnostics
            .iter()
            .any(|d| d.rule == RuleId::Wf && d.waived && d.waiver_reason.is_some()),
        "the Cole–Vishkin synchronizer's non-wait-freedom should be visible as a waived FTC-WF-006"
    );
    let imp = analyze_alg("mis-impatient", &[5], &cfg()).expect("registry name");
    assert!(
        imp.diagnostics
            .iter()
            .any(|d| d.rule == RuleId::Stab && d.waived),
        "ImpatientMis's E7 flaw should be visible as a waived FTC-STAB-003"
    );
    assert!(cv.clean() && imp.clean(), "waived entries still gate clean");
}

#[test]
fn linter_reports_are_deterministic() {
    let a = analyze_all(&[5], &cfg());
    let b = analyze_all(&[5], &cfg());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.diagnostics, rb.diagnostics, "alg {}", ra.name);
    }
    // Pinned bytes: the JSON `ftcolor analyze --alg all` prints (the race
    // matrix adds nothing), so registry refactors cannot drift a spec.
    let all: Vec<Diagnostic> = analyze_all(&[5, 8], &cfg())
        .into_iter()
        .flat_map(|r| r.diagnostics)
        .collect();
    assert_eq!(
        fnv1a(render_json(&all).as_bytes()),
        0xa4cd_0ea7_7951_ac0f,
        "analyze JSON drifted"
    );
}

// ---------------------------------------------------------------------
// Negative fixtures: one mutant per linter rule.
// ---------------------------------------------------------------------

/// Lints a mutant on C5 with a 5-color claim and a 4-round solo bound
/// (every mutant is built to honor whichever contracts it doesn't
/// target, so the returned rule set is the mutant's signature).
fn lint_mutant<A>(alg: &A) -> Vec<RuleId>
where
    A: ftcolor::model::Algorithm<Input = u64, Output = u64>,
    A::State: PartialEq,
{
    let topo = Topology::cycle(5).expect("cycles need n >= 3 nodes");
    let spec = ContractSpec::new("mutant")
        .palette(5, |&c: &u64| Some(c))
        .solo_bound(4);
    let diags = lint_algorithm(alg, &spec, &topo, &inputs::random_unique(5, 100, 1), &cfg());
    rules_fired(&diags)
}

#[test]
fn neighbor_writer_fires_swmr_only() {
    assert_eq!(lint_mutant(&NeighborWriter::new(5)), vec![RuleId::Swmr]);
}

#[test]
fn state_smuggler_fires_snap() {
    let rules = lint_mutant(&StateSmuggler::new());
    assert!(rules.contains(&RuleId::Snap), "got {rules:?}");
    assert!(
        !rules.contains(&RuleId::Det),
        "the smuggler is built to evade the determinism probe; got {rules:?}"
    );
}

#[test]
fn unstable_decider_fires_stab_only() {
    assert_eq!(lint_mutant(&UnstableDecider), vec![RuleId::Stab]);
}

#[test]
fn out_of_palette_fires_pal_only() {
    assert_eq!(lint_mutant(&OutOfPalette), vec![RuleId::Pal]);
}

#[test]
fn nondet_stepper_fires_det() {
    let rules = lint_mutant(&NondetStepper::new(42));
    assert!(rules.contains(&RuleId::Det), "got {rules:?}");
}

#[test]
fn solo_diverger_fires_wf_only() {
    assert_eq!(lint_mutant(&SoloDiverger), vec![RuleId::Wf]);
}

// ---------------------------------------------------------------------
// Negative fixtures: hand-built event logs, one per runtime rule.
// ---------------------------------------------------------------------

struct LogBuilder {
    seq: u64,
    events: Vec<RtEvent>,
}

impl LogBuilder {
    fn new() -> Self {
        LogBuilder {
            seq: 0,
            events: Vec::new(),
        }
    }

    fn push(&mut self, process: usize, round: u64, register: usize, kind: RtEventKind) {
        self.events.push(RtEvent {
            seq: self.seq,
            process,
            round,
            register,
            kind,
        });
        self.seq += 1;
    }

    /// One well-formed atomic round of `process` on C3 (closed
    /// neighborhood = all three registers).
    fn good_round(&mut self, process: usize, round: u64) {
        self.block(&c3(), process, round);
    }

    /// One well-formed atomic round of `process` on `topo`: locks on the
    /// closed neighborhood in ascending index order, own write, neighbor
    /// reads, unlocks — one contiguous block.
    fn block(&mut self, topo: &Topology, process: usize, round: u64) {
        let reads: Vec<usize> = topo
            .neighbors(ProcessId(process))
            .iter()
            .map(|q| q.index())
            .collect();
        let mut closed = reads.clone();
        closed.push(process);
        closed.sort_unstable();
        for &r in &closed {
            self.push(process, round, r, RtEventKind::Lock);
        }
        self.push(process, round, process, RtEventKind::Write);
        for &r in &reads {
            self.push(process, round, r, RtEventKind::Read);
        }
        for &r in &closed {
            self.push(process, round, r, RtEventKind::Unlock);
        }
    }
}

fn c3() -> Topology {
    Topology::cycle(3).expect("C3 is the smallest legal cycle")
}

/// Every log made of contiguous round blocks is clean, whatever the
/// topology and the commit order: no two lock windows interleave, each
/// register's rounds follow the commit order, and every access sits
/// inside a lock that joins the previous unlock's clock. This is why a
/// simulator that commits each round in one event has nothing to
/// race-check. Each process commits a random number of rounds (zero
/// included, as for a process crashed before its first commit), and
/// the rounds interleave at random.
#[test]
fn well_formed_log_is_clean() {
    let mixed = Topology::from_edges(
        8,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (3, 5),
            (5, 6),
            (4, 6),
            (2, 7),
        ],
    )
    .unwrap();
    let topos = (3..=8)
        .map(|n| (format!("C{n}"), Topology::cycle(n).unwrap()))
        .chain([("G8".to_string(), mixed)]);
    for (name, topo) in topos {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rounds: Vec<u64> = (0..topo.len()).map(|_| rng.gen_range(0..5)).collect();
            let mut next = vec![0u64; topo.len()];
            let mut b = LogBuilder::new();
            while next != rounds {
                let p = rng.gen_range(0..topo.len());
                if next[p] < rounds[p] {
                    b.block(&topo, p, next[p]);
                    next[p] += 1;
                }
            }
            assert_eq!(
                check_events("good", &topo, &b.events),
                vec![],
                "{name}, seed {seed}"
            );
        }
    }
}

#[test]
fn out_of_order_locks_fire_rt101() {
    let mut b = LogBuilder::new();
    b.good_round(0, 0);
    // Process 1 acquires register 2 before register 1: deadlock-prone.
    for r in [0usize, 2, 1] {
        b.push(1, 0, r, RtEventKind::Lock);
    }
    b.push(1, 0, 1, RtEventKind::Write);
    b.push(1, 0, 0, RtEventKind::Read);
    b.push(1, 0, 2, RtEventKind::Read);
    for r in 0..3 {
        b.push(1, 0, r, RtEventKind::Unlock);
    }
    let rules = rules_fired(&check_events("bad", &c3(), &b.events));
    assert_eq!(rules, vec![RuleId::RtLockOrder]);
}

#[test]
fn foreign_lock_inside_a_held_window_fires_rt102() {
    let mut b = LogBuilder::new();
    // Process 0 opens its window...
    for r in 0..3 {
        b.push(0, 0, r, RtEventKind::Lock);
    }
    b.push(0, 0, 0, RtEventKind::Write);
    // ...and process 1 grabs register 1 while process 0 still holds it:
    // the snapshot interval is torn.
    b.push(1, 0, 1, RtEventKind::Lock);
    b.push(0, 0, 1, RtEventKind::Read);
    b.push(0, 0, 2, RtEventKind::Read);
    for r in 0..3 {
        b.push(0, 0, r, RtEventKind::Unlock);
    }
    let rules = rules_fired(&check_events("bad", &c3(), &b.events));
    assert!(rules.contains(&RuleId::RtAtomicity), "got {rules:?}");
}

#[test]
fn cyclic_register_orders_fire_rt103() {
    let mut b = LogBuilder::new();
    // Register 0 says round (p0,0) precedes (p1,0); register 1 says the
    // opposite — no linearization order exists.
    b.push(0, 0, 0, RtEventKind::Lock);
    b.push(1, 0, 0, RtEventKind::Lock);
    b.push(1, 0, 1, RtEventKind::Lock);
    b.push(0, 0, 1, RtEventKind::Lock);
    let rules = rules_fired(&check_events("bad", &c3(), &b.events));
    assert!(rules.contains(&RuleId::RtLinearization), "got {rules:?}");
}

#[test]
fn unsynchronized_read_after_write_fires_rt104() {
    let mut b = LogBuilder::new();
    // Process 0 writes register 0 under its lock; process 1 then reads
    // register 0 without ever locking it — no happens-before edge
    // orders the read after the write.
    b.push(0, 0, 0, RtEventKind::Lock);
    b.push(0, 0, 0, RtEventKind::Write);
    b.push(0, 0, 0, RtEventKind::Unlock);
    b.push(1, 0, 0, RtEventKind::Read);
    let rules = rules_fired(&check_events("bad", &c3(), &b.events));
    assert!(rules.contains(&RuleId::RtRace), "got {rules:?}");
}

// ---------------------------------------------------------------------
// The real runtime, checked end to end.
// ---------------------------------------------------------------------

#[test]
fn race_matrix_verifies_the_conformance_configurations() {
    let diags = race_matrix();
    let rendered: Vec<String> = diags.iter().map(Diagnostic::render).collect();
    assert!(
        diags.is_empty(),
        "threaded runtime produced non-linearizable event logs:\n{}",
        rendered.join("\n")
    );
}
