//! `ftcolor-cluster` — the real-process cluster substrate for the
//! asynchronous-cycle coloring algorithms.
//!
//! The fourth and most physical substrate of the reproduction: after
//! the abstract executor (`ftcolor-model`), the OS-thread runtime
//! (`ftcolor-runtime`), and the discrete-event network simulator
//! (`ftcolor-net`), this crate runs each ring node as its **own OS
//! process** (`ftcolor node`) speaking the shared `ftcolor-net` frame
//! vocabulary as line-delimited JSON over stdin/stdout — the
//! Gossip-Glomers / Maelstrom shape. An orchestrator
//! ([`run_cluster`], CLI: `ftcolor cluster`) spawns the nodes, routes
//! frames between them through the shared fault-plan interpreter
//! (drop/delay/duplicate/reorder/partition, wall-clock-mapped), turns
//! plan crashes into real `SIGKILL`s, keeps dead nodes' registers
//! readable from a router-side cache (substrate memory survives the
//! process, as the paper's model requires), and collects `decide`
//! frames into a report implementing the shared
//! [`ftcolor_model::SubstrateReport`] oracle surface.
//!
//! Live runs race on wall clocks and are **not** reproducible from
//! their seed — so the orchestrator journals every routed frame into a
//! [`ClusterTrace`], and [`replay_trace`] re-verifies that journal
//! deterministically against in-process replicas of the node state
//! machine ([`NodeCore`], the exact code the node binary runs, around
//! the [`ftcolor_net::protocol`] round machine the simulator runs too).
//! A failing live run shrinks to a committed fixture that replays
//! forever, with no processes spawned.
//!
//! What this substrate proves that the others can't: the protocol
//! survives *real* process isolation — OS scheduling, pipe buffering,
//! actual SIGKILL at arbitrary code points — rather than simulated
//! interleavings. What it doesn't prove: coverage (a live run is one
//! schedule; exhaustive interleaving exploration stays with the model
//! checker). See `EXPERIMENTS.md` §E15.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod core;
pub mod named;
pub mod node;
pub mod orchestrator;
mod pipe;
pub mod replay;
pub mod trace;

pub use crate::core::{check_init, NodeCore};
pub use named::{cluster_replay, cluster_run, ClusterOutcome, ClusterSummary};
pub use node::node_main;
pub use orchestrator::{run_cluster, ChildGuard, ClusterOptions, ClusterReport, ClusterStats};
pub use replay::{replay_trace, ReplayReport};
pub use trace::{ClusterEntry, ClusterTrace, SendFate, CLUSTER_TRACE_SCHEMA};
