//! The linter's registry: every [`catalogue`](crate::catalogue) entry
//! linted against its declared contract, plus the runtime race-detector
//! matrix.
//!
//! `ftcolor analyze` and `tests/analyze.rs` both drive this module, so
//! the CLI, the test suite, and the CI gate agree on what "all shipped
//! algorithms pass the full rule set" means. Catalogue entries may
//! declare waivers for *documented* violations (e.g. `ImpatientMis`'s
//! unpublished-verdict flaw, which is the repo's E7 exhibit, not a
//! regression); waived diagnostics stay visible in reports but don't
//! fail the gate.

use ftcolor_core::decoupled_ring::DecoupledThreeColoring;
use ftcolor_core::{FiveColoringPatched, SixColoring};
use ftcolor_model::decoupled::DecoupledExecution;
use ftcolor_model::{inputs, prelude::*};
use ftcolor_runtime::{run_threaded, RunOptions};

use crate::catalogue::{ids, lookup, waive, Exemption, Scope, SHIPPED};
use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic, RuleId};
use crate::linter::{FUEL, SEEDS};
use crate::race::check_events;

/// The lint outcome for one registry entry.
#[derive(Debug, Clone)]
pub struct AlgReport {
    /// The registry name.
    pub name: &'static str,
    /// All diagnostics, waived ones included (and marked).
    pub diagnostics: Vec<Diagnostic>,
}

impl AlgReport {
    /// Diagnostics that actually count against the CI gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.waived)
    }

    /// `true` when no unwaived diagnostic fired.
    pub fn clean(&self) -> bool {
        self.unwaived().next().is_none()
    }
}

/// Runs the full abstract rule set on the named shipped algorithm over
/// cycle sizes `sizes`, or the catalogue's own instances for them
/// (cliques for `renaming`, plus a 3×3 torus for `alg4`).
/// Returns `None` for unknown names (see [`SHIPPED`]) and for a size
/// below 3, which has no instance.
pub fn analyze_alg(name: &str, sizes: &[usize]) -> Option<AlgReport> {
    lookup(name, |name, entry| entry.lint(name, sizes)).flatten()
}

/// The DECOUPLED ring 3-coloring doesn't implement [`Algorithm`] (its
/// `decide` reads a knowledge ball, not registers), so the generic
/// instrumented executor can't run it. This path checks the rules that
/// survive translation — the `palette` bound, determinism (two
/// identical runs must be bit-identical), and wait-freedom (a solo
/// process decides once its knowledge radius suffices) — and declares
/// the register-specific rules (SWMR, snapshot scope, stability) waived
/// as not applicable in `waivers`.
pub(crate) fn lint_decoupled(
    name: &str,
    n: usize,
    palette: u64,
    waivers: &[Exemption],
) -> Option<Vec<Diagnostic>> {
    let alg = DecoupledThreeColoring::new();
    let topo = Topology::cycle(n).ok()?;
    let xs = ids(n, 7);
    let spec = waive(ContractSpec::<u64>::new(name), waivers, Scope::Dynamic);
    let mut sink = DiagSink::default();

    // Determinism: identical schedules must give identical outputs.
    for seed in SEEDS {
        let run = |_: ()| {
            let mut exec = DecoupledExecution::new(&alg, &topo, xs.clone());
            exec.run(RandomSubset::new(seed, 0.5), FUEL).ok()
        };
        let (a, b) = (run(()), run(()));
        if a.as_ref().map(|r| &r.outputs) != b.as_ref().map(|r| &r.outputs) {
            let msg =
                format!("two identical DECOUPLED runs (seed {seed}) produced different outputs");
            sink.push(Diagnostic::new(RuleId::Det, name, msg));
        }
        // Palette over whatever returned.
        let returned = a.iter().flat_map(ExecutionReport::returned);
        for (p, c) in returned.filter(|&(_, &c)| c >= palette) {
            let msg =
                format!("process {p} returned color {c}, outside the {palette}-color palette");
            sink.push(Diagnostic::new(RuleId::Pal, name, msg).process(p.index()));
        }
    }

    // Wait-freedom: a solo process decides once its knowledge radius
    // reaches the algorithm's requirement (time advances regardless of
    // other processes in this model — that's the model separation).
    let bound = alg.required_radius() as u64 + 1;
    for p in topo.nodes() {
        let mut exec = DecoupledExecution::new(&alg, &topo, xs.clone());
        let solo = FixedSequence::from_indices(vec![vec![p.index()]; bound as usize]);
        let _ = exec.run(solo, bound + 2);
        if exec.outputs()[p.index()].is_none() {
            let msg = format!(
                "solo DECOUPLED execution of process {p} did not decide within \
                 radius bound {bound}"
            );
            sink.push(Diagnostic::new(RuleId::Wf, name, msg).process(p.index()));
        }
    }

    Some(sink.finish(&spec))
}

/// Runs [`analyze_alg`] over every registry entry.
///
/// # Panics
///
/// Panics if a size is below 3 (no instance of that size exists).
pub fn analyze_all(sizes: &[usize]) -> Vec<AlgReport> {
    SHIPPED
        .into_iter()
        .map(|name| analyze_alg(name, sizes).expect("shipped names and sizes >= 3 lint"))
        .collect()
}

/// The runtime race-detector matrix: replays the cross-substrate
/// conformance configurations — {Alg1, Alg2-patched} × {C5, C8} ×
/// {no-crash, 1-crash} × 3 seeds — through the threaded runtime with
/// event recording, and checks every log for atomic-snapshot
/// linearization. Returns all diagnostics (empty = the runtime kept its
/// fidelity promise on every configuration).
pub fn race_matrix() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &n in &[5usize, 8] {
        let topo = Topology::cycle(n).expect("cycles need n >= 3 nodes");
        for seed in 0..3u64 {
            let xs = inputs::random_unique(n, 10_000, seed);
            let one_crash = Some(((seed as usize + n) % n, 2 + seed % 3));
            for crash in [None, one_crash] {
                let mut opts = RunOptions::new()
                    .jitter(15)
                    .with_seed(seed)
                    .record_events(true);
                if let Some((p, rounds)) = crash {
                    opts = opts.crash(p, rounds);
                }
                let thr = run_threaded(&SixColoring, &topo, xs.clone(), &opts);
                diags.extend(check_events("alg1 (runtime)", &topo, &thr.events));
                let thr = run_threaded(&FiveColoringPatched, &topo, xs.clone(), &opts);
                diags.extend(check_events("alg2p (runtime)", &topo, &thr.events));
            }
        }
    }
    diags
}
