//! Structured diagnostics with compiler-lint-style rule IDs.
//!
//! Every contract violation the analyzer finds is a [`Diagnostic`]
//! carrying a [`RuleId`], the offending algorithm, and (when known) the
//! process and model time. Diagnostics render as text lints
//! (`error[FTC-SWMR-001]: …`) or as JSON records for the CI gate.

use std::collections::HashMap;
use std::fmt;

use serde::{Serialize, Sink};

use crate::contract::ContractSpec;

/// The analyzer's rule set. `FTC-*-0xx` rules come from the abstract
/// contract linter, `FTC-RT-1xx` from the runtime race detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// `FTC-SWMR-001` — a step wrote a register its process doesn't own.
    Swmr,
    /// `FTC-SNAP-002` — a step read state outside the handed view.
    Snap,
    /// `FTC-STAB-003` — a decided color or published register changed.
    Stab,
    /// `FTC-PAL-004` — an emitted color exceeds the declared palette.
    Pal,
    /// `FTC-DET-005` — identical state+view produced different steps.
    Det,
    /// `FTC-WF-006` — a solo execution exceeded the declared round bound.
    Wf,
    /// `FTC-TERM-007` — a solo run from a statically reachable state
    /// lassoes (or exhausts fuel) without deciding.
    Term,
    /// `FTC-DOM-008` — a reachable state escapes the certified abstract
    /// domain (widening breach, state-cap overflow, or an algorithm with
    /// no certifiable domain at all).
    Dom,
    /// `FTC-RT-101` — register locks acquired out of global index order.
    RtLockOrder,
    /// `FTC-RT-102` — a round's snapshot interval was not atomic.
    RtAtomicity,
    /// `FTC-RT-103` — per-register round orders admit no linearization.
    RtLinearization,
    /// `FTC-RT-104` — two register accesses unordered by happens-before.
    RtRace,
}

impl RuleId {
    /// Every rule, linter rules first.
    pub const ALL: [RuleId; 12] = [
        RuleId::Swmr,
        RuleId::Snap,
        RuleId::Stab,
        RuleId::Pal,
        RuleId::Det,
        RuleId::Wf,
        RuleId::Term,
        RuleId::Dom,
        RuleId::RtLockOrder,
        RuleId::RtAtomicity,
        RuleId::RtLinearization,
        RuleId::RtRace,
    ];

    /// The stable rule code (what CI configs and waivers reference).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Swmr => "FTC-SWMR-001",
            RuleId::Snap => "FTC-SNAP-002",
            RuleId::Stab => "FTC-STAB-003",
            RuleId::Pal => "FTC-PAL-004",
            RuleId::Det => "FTC-DET-005",
            RuleId::Wf => "FTC-WF-006",
            RuleId::Term => "FTC-TERM-007",
            RuleId::Dom => "FTC-DOM-008",
            RuleId::RtLockOrder => "FTC-RT-101",
            RuleId::RtAtomicity => "FTC-RT-102",
            RuleId::RtLinearization => "FTC-RT-103",
            RuleId::RtRace => "FTC-RT-104",
        }
    }

    /// One-line description of the contract the rule enforces.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::Swmr => "a step may write only its own register (SWMR discipline, §2)",
            RuleId::Snap => "a step may read only the snapshot view it was handed",
            RuleId::Stab => "a decided color never changes and its register never regresses",
            RuleId::Pal => "emitted colors stay within the algorithm's declared palette",
            RuleId::Det => "identical state and view must produce identical steps",
            RuleId::Wf => "solo executions terminate within the declared round bound",
            RuleId::Term => "every solo run from every reachable state reaches a decision",
            RuleId::Dom => "every reachable state stays inside the certified abstract domain",
            RuleId::RtLockOrder => "register locks are acquired in global index order",
            RuleId::RtAtomicity => "a round's write + neighbor reads form one atomic interval",
            RuleId::RtLinearization => {
                "per-register round orders form an acyclic (linearizable) history"
            }
            RuleId::RtRace => "same-register accesses are ordered by happens-before",
        }
    }

    /// Parses a stable code (`"FTC-SWMR-001"`) back into a rule.
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.code() == code)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// The algorithm (registry name) being analyzed.
    pub alg: String,
    /// The offending process, when attributable.
    pub process: Option<usize>,
    /// The model time (or runtime round) of the violation, when known.
    pub time: Option<u64>,
    /// Human-readable description of the specific violation.
    pub message: String,
    /// `true` when the registry entry declares this rule waived.
    pub waived: bool,
    /// The declared waiver justification, if waived.
    pub waiver_reason: Option<String>,
}

impl Diagnostic {
    /// A new unwaived diagnostic with no location.
    pub fn new(rule: RuleId, alg: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            alg: alg.into(),
            process: None,
            time: None,
            message: message.into(),
            waived: false,
            waiver_reason: None,
        }
    }

    /// Attaches the offending process.
    pub fn process(mut self, p: usize) -> Self {
        self.process = Some(p);
        self
    }

    /// Attaches the model time / runtime round.
    pub fn time(mut self, t: u64) -> Self {
        self.time = Some(t);
        self
    }

    /// Renders compiler-lint style, e.g.
    /// `error[FTC-SWMR-001]: alg foo, process 2, t=7: …`.
    pub fn render(&self) -> String {
        let sev = if self.waived { "waived" } else { "error" };
        let mut loc = format!("alg {}", self.alg);
        if let Some(p) = self.process {
            loc.push_str(&format!(", process {p}"));
        }
        if let Some(t) = self.time {
            loc.push_str(&format!(", t={t}"));
        }
        let mut out = format!("{sev}[{}]: {loc}: {}", self.rule, self.message);
        if let Some(reason) = &self.waiver_reason {
            out.push_str(&format!("\n  note: waived: {reason}"));
        }
        out
    }
}

/// One JSON object with stable keys, suitable for the CI gate: `code`,
/// `alg`, `waived` and `message`, then `process`, `time` and
/// `waiver_reason` when present.
impl Serialize for Diagnostic {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        let present = usize::from(self.process.is_some())
            + usize::from(self.time.is_some())
            + usize::from(self.waiver_reason.is_some());
        sink.begin_object(4 + present);
        sink.key("code");
        sink.str(self.rule.code());
        sink.key("alg");
        sink.str(&self.alg);
        sink.key("waived");
        sink.bool(self.waived);
        sink.key("message");
        sink.str(&self.message);
        if let Some(p) = self.process {
            sink.key("process");
            p.serialize(sink);
        }
        if let Some(t) = self.time {
            sink.key("time");
            sink.uint(t);
        }
        if let Some(reason) = &self.waiver_reason {
            sink.key("waiver_reason");
            sink.str(reason);
        }
        sink.end();
    }
}

/// The most findings of one rule an analyzed instance keeps: the first
/// ones win, and the rest repeat the same root cause.
pub(crate) const MAX_PER_RULE: usize = 4;

/// A diagnostic accumulator that keeps the first [`MAX_PER_RULE`]
/// findings of each rule and only counts the rest (capping on the way
/// in keeps pathological mutants from storing millions of findings).
#[derive(Default)]
pub(crate) struct DiagSink {
    diags: Vec<Diagnostic>,
    counts: HashMap<RuleId, usize>,
}

impl DiagSink {
    pub(crate) fn push(&mut self, d: Diagnostic) {
        let n = self.counts.entry(d.rule).or_insert(0);
        *n += 1;
        if *n <= MAX_PER_RULE {
            self.diags.push(d);
        }
    }

    /// `true` once any finding of `rule` arrived, kept or not.
    pub(crate) fn fired(&self, rule: RuleId) -> bool {
        self.counts.contains_key(&rule)
    }

    /// The kept findings, each marked waived where `spec` waives its
    /// rule.
    pub(crate) fn finish<O>(self, spec: &ContractSpec<O>) -> Vec<Diagnostic> {
        let mut diags = self.diags;
        for d in &mut diags {
            if let Some(reason) = spec.waiver_for(d.rule) {
                d.waived = true;
                d.waiver_reason = Some(reason.to_string());
            }
        }
        diags
    }
}

impl Extend<Diagnostic> for DiagSink {
    fn extend<I: IntoIterator<Item = Diagnostic>>(&mut self, diags: I) {
        for d in diags {
            self.push(d);
        }
    }
}

/// Renders a batch of diagnostics as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    serde_json::to_string(diags).expect("diagnostics serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_code(rule.code()), Some(rule));
        }
        assert_eq!(RuleId::from_code("FTC-NOPE-999"), None);
    }

    #[test]
    fn render_mentions_code_and_location() {
        let d = Diagnostic::new(RuleId::Swmr, "alg1", "wrote register 3")
            .process(2)
            .time(7);
        let s = d.render();
        assert!(s.contains("error[FTC-SWMR-001]"));
        assert!(s.contains("process 2"));
        assert!(s.contains("t=7"));
    }

    #[test]
    fn json_escapes_and_has_stable_keys() {
        let d = Diagnostic::new(RuleId::Pal, "m\"x", "color 6 > palette \"5\"");
        let j = render_json(&[d.clone(), d.process(2)]);
        assert_eq!(
            j,
            "[{\"code\":\"FTC-PAL-004\",\"alg\":\"m\\\"x\",\"waived\":false,\
             \"message\":\"color 6 > palette \\\"5\\\"\"},\
             {\"code\":\"FTC-PAL-004\",\"alg\":\"m\\\"x\",\"waived\":false,\
             \"message\":\"color 6 > palette \\\"5\\\"\",\"process\":2}]"
        );
    }
}
