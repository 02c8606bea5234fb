//! Registry wiring for `ftcolor certify`: every shipped algorithm bound
//! to its certified abstract domain from `ftcolor_core::domains`, with
//! waivers for the documented exceptions.
//!
//! The waiver policy mirrors the dynamic registry's: a rule an entry
//! knowingly fails still *runs* and its findings are reported, marked
//! waived — never silently skipped. Three kinds of entry need one here:
//!
//! * the MIS candidates waive `FTC-TERM-007`: a process whose neighbor
//!   freezes with the larger identifier and no verdict can never decide
//!   — that solo starvation **is** Property 2.1 (MIS is not wait-free
//!   solvable in this model), the paper's impossibility exhibit;
//! * `mis-impatient` additionally waives `FTC-STAB-003` (the E7
//!   unpublished-verdict flaw, shipped on purpose);
//! * `cv` and `decoupled-ring` waive `FTC-DOM-008`: neither admits a
//!   finite per-process view abstraction (one is a synchronized LOCAL
//!   algorithm whose state carries global round structure, the other
//!   doesn't implement the register-model `Algorithm` trait at all), so
//!   they carry an explicit *uncertified* finding instead of a silent
//!   skip; the dynamic analyzer covers both.

use ftcolor_core::domains;
use ftcolor_core::mis::{EagerMis, ImpatientMis, LocalMaxMis, MisOutput};
use ftcolor_core::renaming::RankRenaming;
use ftcolor_core::{
    DeltaSquaredColoring, FastFiveColoring, FastFiveColoringPatched, FiveColoring,
    FiveColoringPatched, PairColor, RingColoring, SixColoring,
};
use ftcolor_model::domain::ViewDomain;
use ftcolor_model::Algorithm;

use super::{certify_algorithm, CertStats, CertifyConfig};
use crate::contract::ContractSpec;
use crate::diag::{json_str, Diagnostic, RuleId};
use crate::linter::apply_waivers;
use crate::registry::SHIPPED;

/// The certification outcome for one registry entry.
#[derive(Debug)]
pub struct CertReport {
    /// The registry name.
    pub name: &'static str,
    /// The domain's documented abstraction argument (empty for
    /// uncertified entries).
    pub note: String,
    /// All findings, waived ones included (and marked).
    pub diagnostics: Vec<Diagnostic>,
    /// Size and outcome counters (all zero for uncertified entries).
    pub stats: CertStats,
}

impl CertReport {
    /// Findings that count against the CI gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.waived)
    }

    /// `true` when no unwaived finding fired.
    pub fn clean(&self) -> bool {
        self.unwaived().next().is_none()
    }
}

/// Maps an MIS verdict onto the two-"color" palette {In = 0, Out = 1}.
#[allow(clippy::trivially_copy_pass_by_ref)]
fn mis_color(o: &MisOutput) -> Option<u64> {
    Some(match o {
        MisOutput::In => 0,
        MisOutput::Out => 1,
    })
}

/// Why the MIS candidates waive the static termination rule.
const MIS_TERM_WAIVER: &str =
    "solo starvation is Property 2.1: a process whose neighbor freezes holding \
     the larger identifier and no verdict can never decide — MIS is not \
     wait-free solvable in this model, which is exactly what these candidates \
     exhibit";

fn certified<A>(
    name: &'static str,
    alg: &A,
    spec: ContractSpec<A::Output>,
    domain: ViewDomain<A>,
    cfg: &CertifyConfig,
) -> CertReport
where
    A: Algorithm,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    let cert = certify_algorithm(alg, &spec, &domain, cfg);
    CertReport {
        name,
        note: domain.note_text().to_string(),
        diagnostics: cert.diagnostics,
        stats: cert.stats,
    }
}

/// A ring coloring certified over `domain`, with the palette and color
/// projection its [`RingColoring`] registry entry declares.
fn ring_certified<A>(alg: &'static A, domain: ViewDomain<A>, cfg: &CertifyConfig) -> CertReport
where
    A: RingColoring,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
{
    let spec = ContractSpec::new(alg.name()).palette(alg.palette(), |o| Some(alg.color(o)));
    certified(alg.name(), alg, spec, domain, cfg)
}

/// An entry with no certifiable domain: an explicit, waived
/// `FTC-DOM-008` finding instead of a silent skip.
fn uncertified(name: &'static str, reason: &str) -> CertReport {
    let spec: ContractSpec<u64> = ContractSpec::new(name).waive(RuleId::Dom, reason);
    let mut diagnostics = vec![Diagnostic::new(
        RuleId::Dom,
        name,
        "no certified abstract view domain: the algorithm is not statically certified",
    )];
    apply_waivers(&mut diagnostics, &spec);
    CertReport {
        name,
        note: String::new(),
        diagnostics,
        stats: CertStats::default(),
    }
}

/// Certifies the named registry entry over its declared domain.
/// `colors` bounds the candidate-color lattice (5 in CI, matching the
/// paper's palette claims). Returns `None` for unknown names.
pub fn certify_alg(name: &str, colors: u64, cfg: &CertifyConfig) -> Option<CertReport> {
    let report = match name {
        "alg1" => ring_certified(&SixColoring, domains::pair_domain(), cfg),
        "alg2" => ring_certified(&FiveColoring, domains::five_coloring_domain(colors), cfg),
        "alg2p" => ring_certified(
            &FiveColoringPatched,
            domains::five_coloring_patched_domain(colors),
            cfg,
        ),
        "alg3" => ring_certified(&FastFiveColoring, domains::fast_five_domain(colors, 2), cfg),
        "alg3p" => ring_certified(
            &FastFiveColoringPatched,
            domains::fast_five_patched_domain(colors, 2),
            cfg,
        ),
        "alg4" => certified(
            "alg4",
            &DeltaSquaredColoring,
            // The cycle instance (Δ = 2), where the Δ²-palette claim is
            // (Δ+1)(Δ+2)/2 = 6; higher-degree instances are covered
            // dynamically (the domain is per-degree).
            ContractSpec::new("alg4").palette(PairColor::palette_size(2), |c: &PairColor| {
                Some(c.flat_index())
            }),
            domains::pair_domain(),
            cfg,
        ),
        "cv" => uncertified(
            "cv",
            "the Cole–Vishkin baseline is a synchronous LOCAL algorithm run under \
             an α-synchronizer: its state carries global round structure \
             (position, round counter, previous colors over n positions), which \
             admits no finite per-process view abstraction; the dynamic analyzer \
             covers it",
        ),
        "renaming" => certified(
            "renaming",
            &RankRenaming,
            ContractSpec::new("renaming").palette(5, |&c: &u64| Some(c)),
            domains::renaming_domain(3),
            cfg,
        ),
        "mis-localmax" => certified(
            "mis-localmax",
            &LocalMaxMis,
            ContractSpec::new("mis-localmax")
                .palette(2, mis_color)
                .waive(RuleId::Term, MIS_TERM_WAIVER),
            domains::mis_domain(),
            cfg,
        ),
        "mis-eager" => certified(
            "mis-eager",
            &EagerMis,
            ContractSpec::new("mis-eager")
                .palette(2, mis_color)
                .waive(RuleId::Term, MIS_TERM_WAIVER),
            domains::mis_domain(),
            cfg,
        ),
        "mis-impatient" => certified(
            "mis-impatient",
            &ImpatientMis,
            ContractSpec::new("mis-impatient")
                .palette(2, mis_color)
                .waive(RuleId::Term, MIS_TERM_WAIVER)
                .waive(
                    RuleId::Stab,
                    "documented E7 flaw: ImpatientMis commits a verdict computed in \
                     the same round, so the deciding register value is never \
                     published — exactly the unpublished-verdict failure the repo \
                     exhibits on purpose",
                ),
            domains::mis_domain(),
            cfg,
        ),
        "decoupled-ring" => uncertified(
            "decoupled-ring",
            "the DECOUPLED ring coloring doesn't implement the register-model \
             Algorithm trait (its decide() reads a knowledge ball, not \
             registers), so there is no step function to drive over a view \
             domain; the dynamic analyzer covers the translatable rules",
        ),
        _ => return None,
    };
    Some(report)
}

/// Certifies every registry entry, in [`SHIPPED`] order.
pub fn certify_all(colors: u64, cfg: &CertifyConfig) -> Vec<CertReport> {
    SHIPPED
        .into_iter()
        .map(|name| certify_alg(name, colors, cfg).expect("registry names are exhaustive"))
        .collect()
}

/// Renders certification reports as a deterministic JSON array (stable
/// key order, no timestamps or wall-times — two runs over the same tree
/// must be byte-identical).
pub fn render_cert_json(reports: &[CertReport]) -> String {
    let body: Vec<String> = reports
        .iter()
        .map(|r| {
            let s = &r.stats;
            let solo = match s.solo_bound {
                Some(b) => b.to_string(),
                None => "null".into(),
            };
            let diags: Vec<String> = r.diagnostics.iter().map(Diagnostic::to_json).collect();
            format!(
                "{{\"alg\":{},\"note\":{},\"stats\":{{\"reachable_states\":{},\
                 \"decided_states\":{},\"transitions\":{},\"view_regs\":{},\
                 \"widenings\":{},\"solo_bound\":{},\"truncated\":{}}},\
                 \"diagnostics\":[{}]}}",
                json_str(r.name),
                json_str(&r.note),
                s.reachable_states,
                s.decided_states,
                s.transitions,
                s.view_regs,
                s.widenings,
                solo,
                s.truncated,
                diags.join(",")
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}
