//! # `ftcolor-checker` — verification machinery for the reproduction
//!
//! Everything used to *check* the paper's claims rather than merely run
//! its algorithms:
//!
//! * [`invariants`] — post-hoc and step-wise invariant checking: proper
//!   partial colorings, palette bounds, the Lemma 4.5 evolving-identifier
//!   invariant, and wait-freedom accounting;
//! * [`chains`] — monotone-chain analysis of identifier assignments: the
//!   per-process distances to local extrema that drive the Lemma 3.9
//!   activation bound;
//! * [`modelcheck`] — an exhaustive reachable-configuration model checker
//!   for small instances: explores *every* schedule (all activation
//!   subsets at every step, hence also every crash pattern, since a crash
//!   is just "no further activations"), checks a safety predicate at
//!   every configuration, and detects livelocks as cycles in the
//!   configuration graph. One level-synchronized engine serves every
//!   worker count with bit-identical outcomes;
//! * [`por`] — certified partial-order reduction for the explorers:
//!   connected-activation-set decomposition (exact) plus the
//!   canonical-component staircase (verdict-preserving under a solo-
//!   termination certificate), gated by a per-algorithm certificate that
//!   is cross-examined dynamically before any reduced run;
//! * [`symmetry`] — opt-in orbit canonicalization under the cycle's
//!   automorphism group (rotations + reflections), with the soundness
//!   guard and the witness de-canonicalization algebra;
//! * [`adversary`] — a randomized schedule fuzzer for instances beyond
//!   exhaustive reach: evolves activation-set genomes toward starvation
//!   or safety violations;
//! * [`shrink`] — a deterministic delta-debugging shrinker that reduces
//!   witness schedules (safety violations, livelocks, bound overruns) to
//!   locally minimal replayable form;
//! * [`stats`] — small summary statistics for the experiment harness;
//! * [`ssb`] — the strong-symmetry-breaking reduction of Property 2.1,
//!   used to exhibit why MIS is not wait-free solvable.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod chains;
#[cfg(test)]
mod codec_pin;
pub mod invariants;
pub mod modelcheck;
pub mod por;
pub mod shrink;
pub mod ssb;
pub mod stats;
pub mod symmetry;

pub use adversary::{FuzzConfig, FuzzReport, Objective, ScheduleFuzzer};
pub use chains::ChainAnalysis;
pub use invariants::{check_coloring_report, ColoringCheck};
pub use modelcheck::{
    LivelockWitness, ModelCheckError, ModelCheckOutcome, ModelChecker, SafetyViolation,
};
/// The former name of the multi-threaded checker, which is now [`ModelChecker`].
pub type ParallelModelChecker<'a, A> = ModelChecker<'a, A>;
pub use shrink::{ShrinkStats, Shrinker, ShrunkLivelock, ShrunkSchedule, Witness, WitnessFixture};
pub use stats::{ExploreStats, Summary, VisitedBytes};
pub use symmetry::CycleSymmetry;
