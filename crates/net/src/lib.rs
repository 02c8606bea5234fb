//! `ftcolor-net` — a discrete-event message-passing substrate for the
//! asynchronous-cycle coloring algorithms.
//!
//! The paper's state model (§2) is substrate-agnostic: its theorems
//! hold for any implementation of SWMR registers and local immediate
//! snapshots. This crate provides the third substrate of the
//! reproduction — after the abstract executor (`ftcolor-model`) and the
//! OS-thread runtime (`ftcolor-runtime`) — where each process is a
//! *node* exchanging binary-framed messages (`write`,
//! `snapshot_req`, `snapshot_resp`) with its ring neighbors over a
//! simulated network, so every registry algorithm runs unmodified on
//! it via the ordinary [`ftcolor_model::Algorithm`] trait; the round
//! itself is [`protocol`], shared with the cluster node.
//!
//! What makes it a *network*: a seeded, fully deterministic fault plan
//! ([`FaultPlan`]) with per-link drop/delay/duplicate/reorder
//! probabilities, partition/heal windows, and node crashes, driven by
//! a calendar event queue over a logical clock (no `Instant::now`
//! anywhere in the simulation path). Every run records a
//! [`DeliveryTrace`] — the complete transcript of the network's
//! decisions — which [`replay_net`] re-runs bit-for-bit.
//!
//! What it proves and what it doesn't: register servers are substrate
//! memory co-located with each node and survive process crashes, which
//! is an honest simulation of the paper's crash-surviving shared
//! registers (a real message-passing emulation without such servers
//! would need ABD-style majority replication). Round semantics are
//! tested by the entry oracles and by trace replay, not by a race
//! check: the simulator commits each round in one event, so a lock log
//! of its commits could never show a race; see `EXPERIMENTS.md` §E14
//! for the full claim inventory.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod calendar;
pub mod decoupled;
pub mod faults;
pub mod msg;
pub mod protocol;
pub mod shrink;
pub mod sim;
pub mod trace;
pub mod wire;

pub use decoupled::{replay_decoupled_net, run_decoupled_net};
pub use faults::{draw_fate, CrashAt, Fate, FaultPlan, LinkFault, LinkParams, Partition};
pub use msg::{
    Body, Decide, Frame, Init, InitOk, Msg, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR,
};
pub use protocol::{Link, Machine, Outbox, Payload, Phase, Proc, RegisterError, Slot, Tree};
pub use shrink::shrink_plan;
pub use sim::{replay_net, run_net, NetConfig, NetReport, NetStats, ReplayError, Sent};
pub use trace::{DeliveryTrace, FrameKind, Outcome, TraceEntry, TraceLog};
pub use wire::{Codec, WireError, WirePool, WireStats, MAX_FRAME_BYTES, WIRE_VERSION};
