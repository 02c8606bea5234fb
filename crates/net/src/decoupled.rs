//! Running DECOUPLED algorithms over the simulated network.
//!
//! The DECOUPLED model (see `ftcolor-model::decoupled`) separates
//! computation from communication: a synchronous, reliable network
//! relays inputs regardless of process speed, and a process activated at
//! time `t` knows every input within distance `t`. The message-passing
//! analogue is an **input gossip layer**: every node floods the
//! `(position, input)` pairs it knows to its neighbors inside `write`
//! frames, merging what it receives (a grow-only set, so duplicates and
//! reordering are harmless), with periodic re-gossip to ride out drops.
//!
//! The gossip layer is substrate behavior — like the DECOUPLED network
//! it keeps relaying after its process crashes, so crashes do not block
//! information flow (the model's defining property). Faults still bite:
//! a never-healing partition freezes the knowledge radius on both sides
//! of the cut, stalling any process whose required radius reaches
//! across it.
//!
//! At each activation a process computes its current knowledge radius —
//! the largest `r` such that it knows every node within distance `r` —
//! and offers [`DecoupledAlgorithm::decide`] the corresponding
//! [`Knowledge`] ball; `None` retries at the next activation.

use std::collections::VecDeque;

use ftcolor_model::decoupled::{DecoupledAlgorithm, Knowledge};
use ftcolor_model::{ProcessId, Topology};
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::msg::Msg;
use crate::sim::{id32, recorded, FrameRef, Net, NetConfig, NetReport, ReplayError};
use crate::trace::DeliveryTrace;

/// Runs a DECOUPLED algorithm on the simulated network via input
/// gossip, drawing all fault decisions from `cfg.seed`.
///
/// The report's `rounds` counts decide attempts; `events` is empty
/// (DECOUPLED has no registers, so the race rules don't apply).
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`.
pub fn run_decoupled_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
) -> NetReport<A::Output>
where
    A: DecoupledAlgorithm,
    A::Input: Serialize + Deserialize + Clone,
{
    recorded(GossipSim::new(alg, topo, inputs, plan, cfg, None).run())
}

/// Re-runs a recorded gossip trace bit-for-bit (see
/// [`crate::replay_net`] for the contract).
///
/// # Errors
///
/// The trace diverges from the run.
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`.
pub fn replay_decoupled_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
    trace: &DeliveryTrace,
) -> Result<NetReport<A::Output>, ReplayError>
where
    A: DecoupledAlgorithm,
    A::Input: Serialize + Deserialize + Clone,
{
    GossipSim::new(alg, topo, inputs, plan, cfg, Some(trace)).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Working,
    Returned,
    Crashed,
}

/// A gossip event: 8 bytes, node ids `u32` as on the wire.
enum Ev {
    /// A gossip frame arrives, encoded in the run's codec.
    Deliver { frame: FrameRef },
    /// A process attempts to decide.
    Activate { node: u32 },
    /// A node's substrate re-gossips its known set.
    Gossip { node: u32 },
    /// A process crashes (plan event) — its gossip layer keeps going.
    Crash { node: u32 },
}

impl From<FrameRef> for Ev {
    fn from(frame: FrameRef) -> Self {
        Ev::Deliver { frame }
    }
}

struct GossipSim<'a, A: DecoupledAlgorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    /// Per node: the `(position, input)` pairs its gossip layer knows.
    known: Vec<Vec<Option<A::Input>>>,
    status: Vec<Status>,
    /// Count of `Working` entries in `status`, kept in sync at the two
    /// transitions so the event loop's stop check is O(1) per event.
    working: usize,
    outputs: Vec<Option<A::Output>>,
    rounds: Vec<u64>,
    net: Net<'a, Ev>,
}

impl<'a, A> GossipSim<'a, A>
where
    A: DecoupledAlgorithm,
    A::Input: Serialize + Deserialize + Clone,
{
    fn new(
        alg: &'a A,
        topo: &'a Topology,
        inputs: Vec<A::Input>,
        plan: &'a FaultPlan,
        cfg: &'a NetConfig,
        trace: Option<&'a DeliveryTrace>,
    ) -> Self {
        let n = topo.len();
        assert_eq!(inputs.len(), n, "one input per node");
        let known = (0..n)
            .map(|i| {
                let mut k: Vec<Option<A::Input>> = vec![None; n];
                k[i] = Some(inputs[i].clone());
                k
            })
            .collect();
        let mut net = Net::new(plan, cfg, trace);
        for node in (0..n).map(id32) {
            net.schedule(1, Ev::Gossip { node });
            let delay = net.activation_delay();
            net.schedule(delay, Ev::Activate { node });
        }
        for c in &plan.crashes {
            if c.node < n {
                net.schedule(c.at.max(1), Ev::Crash { node: id32(c.node) });
            }
        }
        GossipSim {
            alg,
            topo,
            inputs,
            known,
            status: vec![Status::Working; n],
            working: n,
            outputs: (0..n).map(|_| None).collect(),
            rounds: vec![0; n],
            net,
        }
    }

    fn run(mut self) -> Result<NetReport<A::Output>, ReplayError> {
        while let Some(ev) = self.net.next(self.working) {
            match ev {
                Ev::Crash { node } => {
                    let status = &mut self.status[node as usize];
                    if *status == Status::Working {
                        *status = Status::Crashed;
                        self.working -= 1;
                    }
                }
                Ev::Gossip { node } => self.on_gossip(node as usize),
                Ev::Activate { node } => self.on_activate(node as usize),
                Ev::Deliver { frame } => self.on_deliver(frame),
            }
        }
        let ids = |s: Status| {
            self.status
                .iter()
                .enumerate()
                .filter(|(_, st)| **st == s)
                .map(|(i, _)| ProcessId(i))
                .collect::<Vec<_>>()
        };
        let (crashed, stalled) = (ids(Status::Crashed), ids(Status::Working));
        self.net
            .report(self.outputs, self.rounds, crashed, stalled, Vec::new())
    }

    /// Periodic re-gossip timer: flood, then re-arm. Runs regardless of
    /// process status: in DECOUPLED the network relays past crashed
    /// nodes.
    fn on_gossip(&mut self, node: usize) {
        self.flood(node);
        let node = id32(node);
        self.net.schedule(self.net.cfg.rto, Ev::Gossip { node });
    }

    /// The substrate floods this node's known set to its neighbors.
    fn flood(&mut self, node: usize) {
        let payload: Vec<(u64, A::Input)> = self.known[node]
            .iter()
            .enumerate()
            .filter_map(|(pos, i)| i.clone().map(|x| (pos as u64, x)))
            .collect();
        let write = Msg::Write {
            round: self.rounds[node],
            value: &payload,
        };
        for q in self.topo.neighbors(ProcessId(node)) {
            self.net.transmit(node, q.index(), write);
        }
    }

    fn on_deliver(&mut self, frame: FrameRef) {
        let (_, dest, msg) = self.net.decode::<Vec<(u64, A::Input)>>(frame);
        let Msg::Write { value: pairs, .. } = msg else {
            return; // gossip uses only `write` frames
        };
        let mut grew = false;
        for (pos, input) in pairs {
            let pos = pos as usize;
            if pos < self.known[dest].len() && self.known[dest][pos].is_none() {
                self.known[dest][pos] = Some(input);
                grew = true;
            }
        }
        // Fresh knowledge propagates immediately (flooding); steady
        // state falls back to the periodic timer.
        if grew {
            self.flood(dest);
        }
    }

    /// A decide attempt: offer the current knowledge ball.
    fn on_activate(&mut self, node: usize) {
        if self.status[node] != Status::Working {
            return;
        }
        self.rounds[node] += 1;
        let radius = self.knowledge_radius(node);
        // Nodes outside the ball are never read (`input_of` guards by
        // distance), so pad unknown slots with the node's own input.
        let own = self.inputs[node].clone();
        let padded: Vec<A::Input> = self.known[node]
            .iter()
            .map(|k| k.clone().unwrap_or_else(|| own.clone()))
            .collect();
        // DECOUPLED time is a knowledge guarantee ("at time t you know
        // everything within distance t"), so the substrate passes the
        // radius it actually achieved — the simulator clock runs ahead
        // of gossip propagation and would overstate the ball.
        let k = Knowledge::new(self.topo, &padded, ProcessId(node), radius);
        if let Some(o) = self.alg.decide(ProcessId(node), radius as u64, &k) {
            self.outputs[node] = Some(o);
            self.status[node] = Status::Returned;
            self.working -= 1;
            return;
        }
        let delay = self.net.activation_delay();
        self.net.schedule(delay, Ev::Activate { node: id32(node) });
    }

    /// The largest `r` such that the node knows the input of every node
    /// within BFS distance `r`.
    fn knowledge_radius(&self, node: usize) -> usize {
        let n = self.topo.len();
        let mut dist = vec![usize::MAX; n];
        dist[node] = 0;
        let mut queue = VecDeque::from([ProcessId(node)]);
        let mut radius = n; // no unknown node found yet
        while let Some(u) = queue.pop_front() {
            for &v in self.topo.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if self.known[node][v.index()].is_none() {
                        // First unknown node bounds the radius.
                        radius = radius.min(dist[v.index()] - 1);
                    } else {
                        queue.push_back(v);
                    }
                }
            }
        }
        radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_their_size() {
        assert!(std::mem::size_of::<Ev>() <= 16);
    }
}
