//! # `ftcolor-core` — the paper's algorithms
//!
//! Implementations of every algorithm in *"Fault Tolerant Coloring of the
//! Asynchronous Cycle"* (Fraigniaud, Lambein-Monette, Rabie, PODC 2022),
//! as [`Algorithm`](ftcolor_model::Algorithm)s over the
//! [`ftcolor-model`](ftcolor_model) substrate:
//!
//! * [`alg1::SixColoring`] — the warm-up wait-free 6-coloring of the
//!   cycle (§3.1, Theorem 3.1), linear time;
//! * [`alg2::FiveColoring`] — the wait-free 5-coloring (§3.2,
//!   Theorem 3.11), linear time, optimal palette;
//! * [`alg3::FastFiveColoring`] — the headline result (§4, Theorem 4.4):
//!   wait-free 5-coloring in `O(log* n)` rounds, combining Algorithm 2
//!   with a Cole–Vishkin-style identifier reduction gated by a
//!   green-light synchronization counter;
//! * [`alg4::DeltaSquaredColoring`] — the Appendix A extension to general
//!   graphs with an `O(Δ²)` palette;
//! * [`cole_vishkin`] — the reduction function `f` of Eq. (6) with the
//!   Lemma 4.2/4.3 properties;
//! * [`sync_local::ColeVishkinThree`] — the classic *synchronous* LOCAL
//!   3-coloring baseline the paper measures itself against;
//! * [`renaming::RankRenaming`] — wait-free `(2n−1)`-renaming on the
//!   clique (the shared-memory algorithm that Algorithm 2 resembles);
//! * [`mis`] — candidate maximal-independent-set algorithms used to
//!   *exhibit* Property 2.1 (MIS is not wait-free solvable in this model);
//! * [`alg2_patched`] — a candidate repair for the reproduction finding
//!   (Algorithm 2's livelock), with its machine-checked evidence;
//! * [`decoupled_ring`] — wait-free 3-coloring in the DECOUPLED model of
//!   the closest related work, for the E11 model-separation experiment;
//! * [`mutants`] — intentionally-buggy algorithms (one per §2 contract)
//!   used as negative fixtures by the `ftcolor-analyze` contract linter;
//! * [`domains`] — certified abstract view domains over which the static
//!   certifier (`ftcolor certify`) proves the contracts exhaustively;
//! * [`ring`] — the ring-coloring registry: the one name → algorithm
//!   table ([`with_ring_coloring!`]) every front end dispatches through.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alg1;
pub mod alg2;
pub mod alg2_patched;
pub mod alg3;
pub mod alg3_patched;
pub mod alg4;
pub mod cole_vishkin;
pub mod color;
pub mod decoupled_ring;
pub mod domains;
pub mod mis;
pub mod mutants;
pub mod renaming;
pub mod ring;
pub mod sync_local;

pub use alg1::SixColoring;
pub use alg2::FiveColoring;
pub use alg2_patched::FiveColoringPatched;
pub use alg3::FastFiveColoring;
pub use alg3_patched::FastFiveColoringPatched;
pub use alg4::DeltaSquaredColoring;
pub use color::{mex, mex2, PairColor};
pub use ring::{ring_safety, RingColoring, RING_COLORINGS};

/// Convenience re-exports of the paper's algorithms and color types.
pub mod prelude {
    pub use crate::alg1::SixColoring;
    pub use crate::alg2::FiveColoring;
    pub use crate::alg2_patched::FiveColoringPatched;
    pub use crate::alg3::FastFiveColoring;
    pub use crate::alg3_patched::FastFiveColoringPatched;
    pub use crate::alg4::DeltaSquaredColoring;
    pub use crate::cole_vishkin::reduce;
    pub use crate::color::PairColor;
    pub use crate::decoupled_ring::DecoupledThreeColoring;
    pub use crate::renaming::RankRenaming;
    pub use crate::ring::RingColoring;
    pub use crate::sync_local::ColeVishkinThree;
}
