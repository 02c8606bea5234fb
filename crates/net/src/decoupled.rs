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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::calendar::EventQueue;
use crate::faults::FaultPlan;
use crate::msg::{Body, Write};
use crate::sim::{decide_fate, Mode, NetConfig, NetReport, NetStats};
use crate::trace::{DeliveryTrace, Outcome, TraceEntry};
use crate::wire::FrameCodec;

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
    GossipSim::new(alg, topo, inputs, plan, cfg, Mode::Record).run()
}

/// Re-runs a recorded gossip trace bit-for-bit (see
/// [`crate::replay_net`] for the contract).
///
/// # Panics
///
/// Panics if the trace diverges from the run.
pub fn replay_decoupled_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
    trace: &DeliveryTrace,
) -> NetReport<A::Output>
where
    A: DecoupledAlgorithm,
    A::Input: Serialize + Deserialize + Clone,
{
    GossipSim::new(alg, topo, inputs, plan, cfg, Mode::replay(trace)).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Working,
    Returned,
    Crashed,
}

enum Ev {
    /// A gossip frame arrives, encoded in the run's codec.
    Deliver { payload: Vec<u8> },
    /// A process attempts to decide.
    Activate { node: usize },
    /// A node's substrate re-gossips its known set.
    Gossip { node: usize },
    /// A process crashes (plan event) — its gossip layer keeps going.
    Crash { node: usize },
}

struct GossipSim<'a, A: DecoupledAlgorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    plan: &'a FaultPlan,
    cfg: &'a NetConfig,
    /// Per node: the `(position, input)` pairs its gossip layer knows.
    known: Vec<Vec<Option<A::Input>>>,
    status: Vec<Status>,
    /// Count of `Working` entries in `status`, kept in sync at the two
    /// transitions so the event loop's stop check is O(1) per event.
    working: usize,
    outputs: Vec<Option<A::Output>>,
    rounds: Vec<u64>,
    queue: EventQueue<Ev>,
    now: u64,
    net_rng: StdRng,
    timing_rng: StdRng,
    mode: Mode<'a>,
    trace: DeliveryTrace,
    stats: NetStats,
    codec: FrameCodec,
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
        mode: Mode<'a>,
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
        let mut sim = GossipSim {
            alg,
            topo,
            inputs,
            plan,
            cfg,
            known,
            status: vec![Status::Working; n],
            working: n,
            outputs: (0..n).map(|_| None).collect(),
            rounds: vec![0; n],
            queue: EventQueue::new(),
            now: 0,
            net_rng: StdRng::seed_from_u64(cfg.seed),
            timing_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            mode,
            trace: DeliveryTrace::default(),
            stats: NetStats::default(),
            codec: FrameCodec::new(cfg.codec),
        };
        for node in 0..n {
            sim.queue.push(1, Ev::Gossip { node });
            let jitter = sim.jitter();
            sim.queue.push(1 + jitter, Ev::Activate { node });
        }
        for c in &plan.crashes {
            if c.node < n {
                sim.queue.push(c.at.max(1), Ev::Crash { node: c.node });
            }
        }
        sim
    }

    fn jitter(&mut self) -> u64 {
        if self.cfg.act_jitter == 0 {
            0
        } else {
            self.timing_rng.gen_range(0..=self.cfg.act_jitter)
        }
    }

    fn run(mut self) -> NetReport<A::Output> {
        while let Some((at, ev)) = self.queue.pop() {
            if self.working == 0 {
                break;
            }
            if at > self.cfg.max_time {
                self.now = self.cfg.max_time;
                break;
            }
            self.now = at;
            self.stats.events_processed += 1;
            match ev {
                Ev::Crash { node } => {
                    if self.status[node] == Status::Working {
                        self.status[node] = Status::Crashed;
                        self.working -= 1;
                    }
                }
                Ev::Gossip { node } => self.on_gossip(node),
                Ev::Activate { node } => self.on_activate(node),
                Ev::Deliver { payload } => self.on_deliver(payload),
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
        let crashed = ids(Status::Crashed);
        let stalled = ids(Status::Working);
        NetReport {
            outputs: self.outputs,
            rounds: self.rounds,
            crashed,
            stalled,
            time: self.now,
            events: Vec::new(),
            trace: self.trace,
            stats: self.stats,
            codec: self.codec.codec(),
            wire: self.codec.stats(),
        }
    }

    /// Periodic re-gossip timer: flood, then re-arm. Runs regardless of
    /// process status: in DECOUPLED the network relays past crashed
    /// nodes.
    fn on_gossip(&mut self, node: usize) {
        self.flood(node);
        self.queue
            .push(self.now + self.cfg.rto, Ev::Gossip { node });
    }

    /// The substrate floods this node's known set to its neighbors.
    fn flood(&mut self, node: usize) {
        let payload: Vec<(u64, A::Input)> = self.known[node]
            .iter()
            .enumerate()
            .filter_map(|(pos, i)| i.clone().map(|x| (pos as u64, x)))
            .collect();
        let value = payload.to_value();
        let neighbors: Vec<usize> = self
            .topo
            .neighbors(ProcessId(node))
            .iter()
            .map(|q| q.index())
            .collect();
        for q in neighbors {
            self.send(
                node,
                q,
                Body::Write(Write {
                    round: self.rounds[node],
                    value: value.clone(),
                }),
            );
        }
    }

    fn on_deliver(&mut self, payload: Vec<u8>) {
        let frame = self.codec.decode(payload);
        let Body::Write(w) = frame.body else {
            return; // gossip uses only `write` frames
        };
        let pairs: Vec<(u64, A::Input)> =
            serde_json::from_value(w.value).expect("gossip payloads decode");
        let dest = frame.dest;
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
        let jitter = self.jitter();
        self.queue
            .push(self.now + 1 + jitter, Ev::Activate { node });
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

    /// Fault-prone send, sharing the fate logic (and hence the replay
    /// format) with the register protocol.
    fn send(&mut self, from: usize, to: usize, body: Body) {
        let kind = body
            .trace_kind()
            .expect("only register-protocol frames cross the simulated network");
        self.stats.sent += 1;
        let seq = self.trace.entries.len() as u64;
        let (outcome, dup_at) = decide_fate(
            self.plan,
            &mut self.mode,
            &mut self.net_rng,
            self.now,
            from,
            to,
            kind,
            seq,
        );
        match outcome {
            Outcome::Deliver { at } => {
                self.stats.delivered += 1;
                // Fate first, encode after: only delivered copies are
                // serialized, and codec choice cannot perturb the trace.
                let payload = self.codec.encode(from, to, &body);
                let dup = dup_at.map(|_| self.codec.copy(&payload));
                self.queue.push(at, Ev::Deliver { payload });
                if let (Some(d), Some(dup)) = (dup_at, dup) {
                    self.stats.duplicated += 1;
                    self.queue.push(d, Ev::Deliver { payload: dup });
                }
            }
            Outcome::Drop => self.stats.dropped += 1,
            Outcome::PartitionDrop => self.stats.partition_dropped += 1,
        }
        self.trace.entries.push(TraceEntry {
            seq,
            t: self.now,
            from,
            to,
            kind,
            outcome,
            dup_at,
        });
    }
}
