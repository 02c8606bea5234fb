//! Deterministic replay of a recorded cluster trace.
//!
//! A live cluster run races on wall clocks, so it cannot be re-run
//! from its seed — but its journal can be *re-verified*. The replayer
//! walks the [`ClusterTrace`] journal in order, driving one in-process
//! [`NodeCore`] replica per node (the same state machine the live node
//! binary wraps, around the [`ftcolor_net::protocol`] machine):
//!
//! * every [`ClusterEntry::Deliver`] is fed to the destination
//!   replica, and whatever the replica emits is queued in that node's
//!   FIFO *outbox*;
//! * every [`ClusterEntry::Send`] must match the front of its source
//!   node's outbox — i.e. the journaled frame must be exactly what an
//!   honest node would have said next. Two documented tolerances
//!   cover the router-ordering races a live run legitimately
//!   produces: timer-driven `snapshot_req` retransmits (the replica
//!   has no clock, so they are accepted when they go to a neighbor and
//!   their round is not ahead of the replica), and register reads the
//!   orchestrator served for a dead node (matched against the
//!   replayed register cache);
//! * a delivered frame the replica refuses (a register payload that
//!   does not decode) fails the replay: an honest router only delivers
//!   what honest nodes said;
//! * decisions are collected from journaled `decide` frames — which
//!   the outbox match has just proven equal to what the replica
//!   computed — and must reproduce the trace's recorded outputs
//!   byte-identically, along with its crashed and stalled sets.
//!
//! The result implements [`SubstrateReport`], so a replayed fixture
//! feeds the same conformance oracles as every other substrate.

use std::collections::VecDeque;

use ftcolor_model::{Algorithm, ProcessId, SubstrateReport};
use ftcolor_net::{Body, Frame};
use serde::{Deserialize, Serialize};

use crate::core::{check_init, NodeCore};
use crate::orchestrator::RouterMemory;
use crate::trace::{ClusterEntry, ClusterTrace, SendFate};

/// The verdict of a successful replay.
#[derive(Debug, Clone)]
pub struct ReplayReport<O> {
    /// Output of each node, decoded from the verified `decide` frames.
    pub outputs: Vec<Option<O>>,
    /// The round each node decided in (0 for nodes without a decision).
    pub rounds: Vec<u64>,
    /// Nodes the journal SIGKILLed before a decision was observed.
    pub crashed: Vec<ProcessId>,
    /// Nodes that neither crashed nor decided.
    pub stalled: Vec<ProcessId>,
    /// Journal entries verified.
    pub entries_verified: usize,
}

impl<O> SubstrateReport<O> for ReplayReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
}

/// Replays `trace` against in-process replicas of the node state
/// machine and cross-checks every journal entry. The `alg` must be the
/// algorithm the trace was recorded with (its registry name is in
/// `trace.alg`; `crate::replay_named` dispatches on it).
///
/// # Errors
///
/// Returns a divergence message (with the offending sequence number)
/// when the journal could not have been produced by honest nodes
/// running `alg`, or when the re-derived outcome differs from the
/// recorded one.
pub fn replay_trace<A>(alg: &A, trace: &ClusterTrace) -> Result<ReplayReport<A::Output>, String>
where
    A: Algorithm<Input = u64>,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize + Deserialize,
{
    let n = trace.n;
    if trace.ids.len() != n {
        return Err(format!("replay: {} ids for n = {n}", trace.ids.len()));
    }
    if trace.outputs.len() != n {
        return Err(format!(
            "replay: {} recorded outputs for n = {n}",
            trace.outputs.len()
        ));
    }

    let mut replicas: Vec<Option<NodeCore<A>>> = (0..n).map(|_| None).collect();
    // Frames an honest node would have emitted, not yet journaled.
    let mut outbox: Vec<VecDeque<Frame>> = vec![VecDeque::new(); n];
    // Responses the orchestrator owes on behalf of dead nodes.
    let mut synth: Vec<VecDeque<Frame>> = vec![VecDeque::new(); n];
    let mut router = RouterMemory::new(n);

    for (idx, entry) in trace.entries.iter().enumerate() {
        let seq = entry.seq();
        if seq != idx as u64 {
            return Err(format!(
                "replay: journal seq {seq} at position {idx} (must be gap-free)"
            ));
        }
        match entry {
            ClusterEntry::Crash { node, .. } => {
                if *node >= n {
                    return Err(format!(
                        "replay: crash of out-of-range node {node} (seq {seq})"
                    ));
                }
                // The pipe may still hold frames the node emitted
                // before dying, so its outbox is *not* cleared.
                router.killed[*node] = true;
            }
            ClusterEntry::Deliver { frame, .. } => {
                let dest = frame.dest;
                if dest >= n {
                    return Err(format!("replay: delivery to node {dest} (seq {seq})"));
                }
                if let Body::Init(init) = &frame.body {
                    check_init(dest, init).map_err(|e| format!("replay: {e} (seq {seq})"))?;
                    if replicas[dest].is_some() {
                        return Err(format!("replay: node {dest} initialized twice (seq {seq})"));
                    }
                    let mut core =
                        NodeCore::new(alg, dest, init.neighbors.clone(), trace.ids[dest]);
                    outbox[dest].extend(core.start());
                    replicas[dest] = Some(core);
                } else if router.killed[dest] {
                    // Only reads reach a dead node — the orchestrator
                    // serves them from its register cache; queue the
                    // response it owes so the journaled send matches.
                    let resp = router.dead_read(frame).ok_or_else(|| {
                        let kind = frame.body.kind();
                        format!("replay: `{kind}` delivered to dead node {dest} (seq {seq})")
                    })?;
                    synth[dest].push_back(resp);
                } else if let Some(core) = replicas[dest].as_mut() {
                    let out = core.on_frame(frame).map_err(|e| {
                        format!(
                            "replay: node {dest} cannot take the frame delivered at seq {seq}: {e}"
                        )
                    })?;
                    outbox[dest].extend(out);
                }
                // No replica and not dead: an uninitialized (wedged)
                // node; the live process buffered the frame unread.
            }
            ClusterEntry::Send { frame, fate, .. } => {
                let src = frame.src;
                if src >= n {
                    return Err(format!("replay: send from node {src} (seq {seq})"));
                }
                // Rebuild the router's memory exactly as the live router
                // did: from every surfaced frame.
                if matches!(frame.body, Body::Decide(_)) && *fate != SendFate::Control {
                    return Err(format!("replay: fault-injected decide (seq {seq})"));
                }
                router.surfaced(frame);
                if outbox[src].front() == Some(frame) {
                    outbox[src].pop_front();
                } else if synth[src].front() == Some(frame) {
                    synth[src].pop_front();
                } else if !is_tolerated_retransmit(frame, replicas[src].as_ref()) {
                    return Err(format!(
                        "replay: node {src} journaled `{}` -> {} (seq {seq}) but an honest \
                         replica would next say {:?}",
                        frame.body.kind(),
                        frame.dest,
                        outbox[src].front().map(|f| f.body.kind()),
                    ));
                }
            }
        }
    }

    // The journal must re-derive the recorded outcome, byte for byte.
    let (replayed, crashed, stalled) = router.outcome();
    let replayed_json = serde_json::to_string(&replayed).expect("values encode");
    let recorded_json = serde_json::to_string(&trace.outputs).expect("values encode");
    if replayed_json != recorded_json {
        return Err(format!(
            "replay: outputs diverge\n  recorded: {recorded_json}\n  replayed: {replayed_json}"
        ));
    }
    if crashed != trace.crashed {
        return Err(format!(
            "replay: crashed set diverges (recorded {:?}, replayed {crashed:?})",
            trace.crashed
        ));
    }
    if stalled != trace.stalled {
        return Err(format!(
            "replay: stalled set diverges (recorded {:?}, replayed {stalled:?})",
            trace.stalled
        ));
    }
    let outputs = router
        .outputs()
        .map_err(|e| format!("replay: decoding a verified output: {e}"))?;
    Ok(ReplayReport {
        outputs,
        rounds: router.rounds,
        crashed: crashed.into_iter().map(ProcessId).collect(),
        stalled: stalled.into_iter().map(ProcessId).collect(),
        entries_verified: trace.entries.len(),
    })
}

/// A journaled frame that misses the outbox is still honest when it is
/// a timer-driven `snapshot_req` retransmit: the replica keeps no
/// clock, so it never *queues* retransmits, but an honest node only
/// ever retransmits its current round's request to a neighbor — accept
/// requests to a neighbor that are not ahead of the replica. The
/// neighbor need not still owe a response: the replica can be ahead of
/// the live node.
fn is_tolerated_retransmit<A: Algorithm>(frame: &Frame, replica: Option<&NodeCore<A>>) -> bool {
    let Body::SnapshotReq(r) = &frame.body else {
        return false;
    };
    replica.is_some_and(|core| r.round <= core.round() && core.is_neighbor(frame.dest))
}
