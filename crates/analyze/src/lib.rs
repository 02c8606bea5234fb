//! `ftcolor-analyze` — static/dynamic analysis for the fault-tolerant
//! coloring codebase, on both substrates:
//!
//! 1. **Contract linter** ([`linter`]): runs any
//!    [`Algorithm`](ftcolor_model::Algorithm) through the abstract
//!    executor's observation hooks and flags violations of the paper's
//!    §2 model contract — SWMR register discipline, snapshot scope
//!    (hidden-state smuggling), decision stability, palette bounds,
//!    step determinism, and a wait-freedom audit of solo executions —
//!    as structured, compiler-lint-style diagnostics ([`diag`]).
//! 2. **Race detector** ([`race`]): consumes the threaded runtime's
//!    register event log (`ftcolor_runtime::RtEvent`) and verifies
//!    post-hoc that every executed round linearizes as one atomic local
//!    snapshot — locks in global index order, contiguous write+read
//!    windows, an acyclic per-register round order, and vector-clock
//!    happens-before coverage of all cross-process accesses.
//! 3. **Static certifier** ([`certify`]): drives each algorithm's real
//!    `step` over an exhaustively enumerated abstract view domain
//!    (`ftcolor_model::domain::ViewDomain`) and proves the per-step
//!    contracts — plus solo termination from *every* reachable state
//!    (`FTC-TERM-007`) and domain containment (`FTC-DOM-008`) — over
//!    the complete local transition system, with no schedule sampling
//!    gap.
//!
//! One [`catalogue`] states every shipped algorithm's facts once —
//! instance, palette, oracle, waivers, view domain — and the
//! [`registry`], [`certify::registry`] and [`netmat`] run its entries,
//! so the `ftcolor analyze`, `certify` and `netsim` CLIs, the tests,
//! and the CI gates all agree on what "clean" means. Violations of a
//! rule an entry *documents* (e.g. the E7 `ImpatientMis` flaw) are
//! reported but waived, never silently skipped.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalogue;
pub mod certify;
pub mod contract;
pub mod diag;
pub mod linter;
pub mod netmat;
pub mod race;
pub mod registry;

pub use catalogue::SHIPPED;
pub use certify::registry::{certify_alg, certify_all, render_cert_json, CertReport};
pub use certify::{certify_algorithm, CertStats, Certification};
pub use contract::{ContractSpec, Waiver};
pub use diag::{render_json, Diagnostic, RuleId};
pub use linter::lint_algorithm;
pub use netmat::{net_run, NetRunOutcome, NetSummary};
pub use race::check_events;
pub use registry::{analyze_alg, analyze_all, race_matrix, AlgReport};
