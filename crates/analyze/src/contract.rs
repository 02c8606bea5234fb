//! Per-algorithm contract declarations: what the linter checks against.

use crate::diag::RuleId;

/// The output→color mapping an algorithm declares.
pub type ColorOf<O> = Box<dyn Fn(&O) -> u64>;

/// A declared exemption: a rule the registry entry knowingly violates.
///
/// Waivers don't skip the check — the rule still runs and its
/// diagnostics are *marked* waived, so the exemption stays visible in
/// every report while the CI gate counts only unwaived findings.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The waived rule.
    pub rule: RuleId,
    /// Why the violation is accepted (documented flaw, model mismatch…).
    pub reason: String,
}

/// The contract an algorithm declares to the linter.
///
/// Generic over the algorithm's output type `O` only, so one spec type
/// serves every [`Algorithm`](ftcolor_model::Algorithm) regardless of
/// its state/register types.
pub struct ContractSpec<O> {
    /// Registry name (appears in diagnostics).
    pub name: String,
    /// Palette size, and the map from an output to its color: every
    /// emitted color must fall below the size (`None` = no palette
    /// claim, rule `FTC-PAL-004` vacuous).
    pub palette: Option<(u64, ColorOf<O>)>,
    /// Declared solo round bound: running any single process alone must
    /// return within this many activations (`None` = no wait-freedom
    /// claim, rule `FTC-WF-006` vacuous).
    pub solo_bound: Option<u64>,
    /// Declared rule exemptions.
    pub waivers: Vec<Waiver>,
}

impl<O> ContractSpec<O> {
    /// A spec with no palette claim, no solo bound, and no waivers.
    pub fn new(name: impl Into<String>) -> Self {
        ContractSpec {
            name: name.into(),
            palette: None,
            solo_bound: None,
            waivers: Vec::new(),
        }
    }

    /// Declares the palette and the output→color mapping.
    pub fn palette(mut self, size: u64, color_of: impl Fn(&O) -> u64 + 'static) -> Self {
        self.palette = Some((size, Box::new(color_of)));
        self
    }

    /// Declares the solo round bound.
    pub fn solo_bound(mut self, rounds: u64) -> Self {
        self.solo_bound = Some(rounds);
        self
    }

    /// Declares a waiver for `rule`.
    pub fn waive(mut self, rule: RuleId, reason: impl Into<String>) -> Self {
        self.waivers.push(Waiver {
            rule,
            reason: reason.into(),
        });
        self
    }

    /// The waiver reason for `rule`, if one is declared.
    pub fn waiver_for(&self, rule: RuleId) -> Option<&str> {
        self.waivers
            .iter()
            .find(|w| w.rule == rule)
            .map(|w| w.reason.as_str())
    }
}
