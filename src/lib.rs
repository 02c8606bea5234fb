//! # `ftcolor` — wait-free coloring of the asynchronous cycle
//!
//! Facade crate re-exporting the whole reproduction of
//! *"Fault Tolerant Coloring of the Asynchronous Cycle"*
//! (Fraigniaud, Lambein-Monette, Rabie, PODC 2022):
//!
//! * [`model`] — the asynchronous state-model substrate (topologies,
//!   registers, schedules, execution engine),
//! * [`core`] — Algorithms 1–4 from the paper, the Cole–Vishkin reduction,
//!   and the baselines (synchronous 3-coloring, shared-memory renaming),
//! * [`checker`] — invariant checking, chain analysis, exhaustive model
//!   checking, and statistics,
//! * [`batch`] — the struct-of-arrays batch executor: millions of
//!   concurrent ring instances as packed interned slab rows, swept by
//!   workers claiming chunks from one cursor, with outcomes
//!   bit-identical to the sequential executor, plus the seeded
//!   open-loop service front end behind `ftcolor serve`,
//! * [`runtime`] — an OS-thread execution substrate with crash and jitter
//!   injection,
//! * [`net`] — a discrete-event message-passing substrate with seeded
//!   fault injection (drop/delay/duplicate/reorder, partitions, crashes)
//!   and bit-identical trace replay, behind `ftcolor netsim`,
//! * [`cluster`] — the real-process cluster substrate: one OS process
//!   per ring node speaking line-delimited JSON frames, an orchestrator
//!   with real SIGKILL crash injection, and deterministic trace replay,
//!   behind `ftcolor cluster` / `ftcolor node`,
//! * [`analyze`] — the model-contract linter and happens-before race
//!   detector behind `ftcolor analyze`.
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub use ftcolor_analyze as analyze;
pub use ftcolor_batch as batch;
pub use ftcolor_checker as checker;
pub use ftcolor_cluster as cluster;
pub use ftcolor_core as core;
pub use ftcolor_model as model;
pub use ftcolor_net as net;
pub use ftcolor_runtime as runtime;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ftcolor_core::prelude::*;
    pub use ftcolor_model::prelude::*;
}
