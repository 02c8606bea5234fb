//! Registry wiring for `ftcolor certify`: every
//! [`catalogue`](crate::catalogue) entry certified over its abstract
//! domain from `ftcolor_core::domains`, or reported uncertified.
//!
//! The waiver policy mirrors the linter's: a rule an entry knowingly
//! fails still *runs* and its findings are reported, marked waived —
//! never silently skipped. An entry with no finite per-process view
//! abstraction (`cv`, a synchronized LOCAL algorithm whose state carries
//! global round structure, and `decoupled-ring`, which doesn't implement
//! the register-model `Algorithm` trait at all) carries an explicit,
//! waived `FTC-DOM-008` finding instead; the dynamic analyzer covers
//! both.

use serde::{Serialize, Sink};

use crate::catalogue::{lookup, SHIPPED};
use crate::contract::ContractSpec;
use crate::diag::{DiagSink, Diagnostic, RuleId};

use super::CertStats;

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

/// An entry with no certifiable domain: an explicit, waived
/// `FTC-DOM-008` finding instead of a silent skip.
pub(crate) fn uncertified(name: &'static str, reason: &str) -> CertReport {
    let spec: ContractSpec<u64> = ContractSpec::new(name).waive(RuleId::Dom, reason);
    let mut sink = DiagSink::default();
    sink.push(Diagnostic::new(
        RuleId::Dom,
        name,
        "no certified abstract view domain: the algorithm is not statically certified",
    ));
    CertReport {
        name,
        note: String::new(),
        diagnostics: sink.finish(&spec),
        stats: CertStats::default(),
    }
}

/// Certifies the named registry entry over its declared domain.
/// Returns `None` for unknown names.
pub fn certify_alg(name: &str) -> Option<CertReport> {
    lookup(name, |name, entry| entry.certify(name))
}

/// Certifies every registry entry, in [`SHIPPED`] order.
pub fn certify_all() -> Vec<CertReport> {
    SHIPPED
        .into_iter()
        .map(|name| certify_alg(name).expect("registry names are exhaustive"))
        .collect()
}

/// One JSON object per report: `alg`, `note`, `stats` (with
/// `solo_bound` `null` when absent) and `diagnostics`, in that order.
impl Serialize for CertReport {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(4);
        sink.key("alg");
        sink.str(self.name);
        sink.key("note");
        sink.str(&self.note);
        sink.key("stats");
        self.stats.serialize(sink);
        sink.key("diagnostics");
        self.diagnostics.serialize(sink);
        sink.end();
    }
}

/// Renders certification reports as a deterministic JSON array (stable
/// key order, no timestamps or wall-times — two runs over the same tree
/// must be byte-identical).
pub fn render_cert_json(reports: &[CertReport]) -> String {
    serde_json::to_string(reports).expect("certification reports serialize")
}
