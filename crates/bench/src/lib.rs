//! # `ftcolor-bench` — the experiment harness
//!
//! One module per experiment (indexed in DESIGN.md §5), each
//! exposing a `run()` that produces serializable result rows. Two
//! consumers share these drivers:
//!
//! * `cargo run -p ftcolor-bench --release --bin experiments` — prints
//!   every table (paper claim vs measured) and writes
//!   `experiments.json`; EXPERIMENTS.md records this output;
//! * the test suite — each driver has smoke tests pinning the claims,
//!   and `e6_modelcheck` pins the configuration count of every
//!   quick-sweep row (release builds only).
//!
//! Wall-clock comparisons between commits are not made here: the
//! `perfbench/` package, the repository's only timer, times the `fleet`, `explore`, `ring` and
//! `netsim` workloads against the parent commit.
//!
//! The paper is a brief announcement with no numbered tables/figures;
//! the experiments reproduce its *theorems* (see DESIGN.md §5 for the
//! mapping).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod common;
pub mod e10_crash_tolerance;
pub mod e11_decoupled;
pub mod e14_net;
pub mod e1_alg1_linear;
pub mod e2_chain_bound;
pub mod e3_alg2_linear;
pub mod e4_cole_vishkin;
pub mod e5_alg3_logstar;
pub mod e6_modelcheck;
pub mod e7_mis_impossible;
pub mod e8_general_graphs;
pub mod e9_baselines;
