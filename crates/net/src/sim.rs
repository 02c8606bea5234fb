//! The discrete-event network simulator.
//!
//! # Protocol
//!
//! Every node hosts two co-located roles:
//!
//! * a **process** running the algorithm's state machine (crashable), and
//! * a **register server** holding the process's SWMR register
//!   (substrate memory — it keeps answering [`crate::msg::SnapshotReq`]
//!   even after its process crashes or returns, exactly as the paper's
//!   shared registers survive process crashes).
//!
//! One asynchronous round of process `p` unfolds as messages:
//!
//! 1. `Activate(p)` fires: `p` encodes `publish(state)` and sends a
//!    `write` frame to itself on the **loopback** link (reliable, one
//!    tick — a process never loses access to its own register).
//! 2. The loopback delivery applies the write (freshness-stamped with
//!    `round + 1`), broadcasts `write` to all ring neighbors (mirror
//!    warm-up — loss is harmless), then sends one `snapshot_req` per
//!    neighbor and arms a retransmit timer for each.
//! 3. Each neighbor's register server answers with `snapshot_resp`
//!    carrying its current value and stamp; requests lost to drops or
//!    partitions are retransmitted every `rto` ticks, and duplicates
//!    are idempotent (a round's response slot fills at most once).
//! 4. When all neighbors answered, the round **commits**: the view per
//!    neighbor is the fresher of `snapshot_resp` and the mirror (the
//!    merge observes a value the register held at or after the request
//!    — equivalent to a later read, so still a regular-register read),
//!    the algorithm's `step` runs, and either the next round's
//!    `Activate` is scheduled or the process returns.
//!
//! Reads therefore always linearize after the process's own write, and
//! final register values of returned processes are permanently
//! readable — the two properties the paper's safety arguments need.
//!
//! # Register storage
//!
//! The register server and the per-neighbor mirrors and responses hold
//! typed `A::Reg` values; a [`Value`] tree exists only in flight. An
//! inbound `write` or `snapshot_resp` is decoded once on delivery (a
//! mirror only when its stamp is fresher), and the register server
//! encodes its value only to answer a `snapshot_req`. Per-neighbor
//! state lives in one flat array indexed by CSR offsets built from the
//! topology's degrees, not in per-node vectors. Algorithm states sit in
//! their own array too, so the per-node record every event reads stays
//! small whatever the size of `A::State`.
//!
//! # Determinism
//!
//! All network nondeterminism (drop/delay/duplicate/reorder draws) comes
//! from one RNG seeded with `cfg.seed`, consumed in send order; all
//! timing nondeterminism (activation jitter) from a second stream
//! derived from the same seed. Events sit in a binary heap ordered by
//! `(time, tick)` with a monotonic tie-break tick. There is no
//! `Instant::now` anywhere in the simulation path, so a `(seed, plan)`
//! pair fully determines the run: byte-identical delivery trace,
//! identical coloring. [`replay_net`] re-runs a recorded trace without
//! touching the network RNG at all.

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step, Topology};
use ftcolor_runtime::{RtEvent, RtEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crate::calendar::EventQueue;
use crate::faults::{Fate, FaultPlan};
use crate::msg::{Body, SnapshotReq, SnapshotResp, Write};
use crate::trace::{DeliveryTrace, FrameKind, Outcome, TraceEntry};
use crate::wire::{Codec, FrameCodec, WireStats};

/// Simulation parameters (everything except the fault plan).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed for both the network and the timing RNG streams.
    pub seed: u64,
    /// Maximum extra activation delay per round (uniform in
    /// `0..=act_jitter` logical ticks).
    pub act_jitter: u64,
    /// Retransmit timeout for unanswered `snapshot_req`s (ticks).
    pub rto: u64,
    /// Hard cap on logical time; still-working processes at the cap are
    /// reported as stalled.
    pub max_time: u64,
    /// Record an [`RtEvent`] log of the round-commit serialization (see
    /// [`NetReport::events`]).
    pub record_events: bool,
    /// Wire encoding for frames in flight (default [`Codec::Json`]).
    /// Codec choice never changes semantics: fault fates are drawn per
    /// send in send order, before any encoding happens, so the trace and
    /// verdicts are byte-identical across codecs.
    pub codec: Codec,
}

impl NetConfig {
    /// Defaults: jitter 3, rto 16, max_time 100 000, no event log,
    /// JSON codec.
    pub fn new(seed: u64) -> Self {
        NetConfig {
            seed,
            act_jitter: 3,
            rto: 16,
            max_time: 100_000,
            record_events: false,
            codec: Codec::Json,
        }
    }

    /// Sets the activation jitter amplitude.
    #[must_use]
    pub fn act_jitter(mut self, ticks: u64) -> Self {
        self.act_jitter = ticks;
        self
    }

    /// Sets the retransmit timeout.
    #[must_use]
    pub fn rto(mut self, ticks: u64) -> Self {
        self.rto = ticks.max(1);
        self
    }

    /// Sets the logical-time cap.
    #[must_use]
    pub fn max_time(mut self, ticks: u64) -> Self {
        self.max_time = ticks;
        self
    }

    /// Enables (or disables) the round-commit event log.
    #[must_use]
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Sets the wire codec for frames in flight.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }
}

/// Message and event counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Network messages sent (loopback register writes excluded).
    pub sent: u64,
    /// Network messages delivered (primary copies).
    pub delivered: u64,
    /// Messages lost to per-link drop probability.
    pub dropped: u64,
    /// Messages lost to active partition windows.
    pub partition_dropped: u64,
    /// Extra duplicate copies injected.
    pub duplicated: u64,
    /// `snapshot_req` retransmissions.
    pub retransmits: u64,
    /// Loopback register writes (reliable, not network messages).
    pub loopback_writes: u64,
    /// `snapshot_req`s answered by the register server of a *crashed*
    /// process — substrate memory outliving its process, the property
    /// the paper's crash-surviving registers need.
    pub served_dead_reads: u64,
    /// Discrete events processed by the simulator loop.
    pub events_processed: u64,
}

/// The result of a simulated network run.
#[derive(Debug, Clone)]
pub struct NetReport<O> {
    /// Output of each process (`None` = crashed or stalled).
    pub outputs: Vec<Option<O>>,
    /// Rounds committed by each process.
    pub rounds: Vec<u64>,
    /// Processes that executed their planned crash.
    pub crashed: Vec<ProcessId>,
    /// Processes still working when the run stopped (partitioned away
    /// forever, or the time cap fired).
    pub stalled: Vec<ProcessId>,
    /// Logical time at which the run stopped.
    pub time: u64,
    /// Round-commit serialization log (empty unless
    /// [`NetConfig::record_events`] was set). One contiguous
    /// Lock*/Write/Read*/Unlock* block per committed round, in commit
    /// order — this records the commit-time serialization of each
    /// round, not raw message timings.
    pub events: Vec<RtEvent>,
    /// The delivery trace: every network send and its fate.
    pub trace: DeliveryTrace,
    /// Message/event counters.
    pub stats: NetStats,
    /// The wire codec this run used.
    pub codec: Codec,
    /// Frame/byte/pool counters for the run's codec.
    pub wire: WireStats,
}

impl<O> NetReport<O> {
    /// `true` when every process returned an output.
    pub fn all_returned(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }
}

impl<O> ftcolor_model::SubstrateReport<O> for NetReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
    // `all_correct_returned` keeps the default: a *stalled* process is
    // not crashed, so it fails the wait-freedom premise — exactly the
    // behavior the never-heals partition test pins down.
}

/// Runs `alg` on the simulated network under `plan`, drawing all fault
/// decisions from `cfg.seed`.
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`, or if a register payload
/// fails to decode back into `A::Reg` after crossing the wire in the
/// configured codec (a bug, not an input condition).
pub fn run_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
) -> NetReport<A::Output>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    Sim::new(alg, topo, inputs, plan, cfg, Mode::Record).run()
}

/// Re-runs a recorded [`DeliveryTrace`] bit-for-bit: the network RNG is
/// never consulted, every send takes the fate the trace recorded for
/// it. `plan` is still needed for its crash schedule (crashes are plan
/// events, not network draws).
///
/// # Panics
///
/// Panics if the trace diverges from the run (a different send
/// sequence or send time, or a delivery scheduled before its send) —
/// which means trace and `(alg, topo, inputs, plan, cfg)` don't belong
/// together.
pub fn replay_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
    trace: &DeliveryTrace,
) -> NetReport<A::Output>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    Sim::new(alg, topo, inputs, plan, cfg, Mode::replay(trace)).run()
}

// ------------------------------------------------------------ internals

/// What happens to one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Working,
    Returned,
    Crashed,
}

/// Where a working process is inside its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between rounds (waiting for its next `Activate`).
    Idle,
    /// Sent the loopback `write`, waiting for it to land.
    AwaitWrite,
    /// Waiting for `snapshot_resp`s.
    Snapshotting,
}

/// A register observation: `None` = never written, else the value and
/// its freshness stamp (writer round + 1).
type Obs<R> = Option<(R, u64)>;

struct Node<R> {
    status: Status,
    round: u64,
    phase: Phase,
    /// The register server's storage (survives process crash/return).
    reg: Obs<R>,
}

/// What a node holds for one neighbor position: node `p`'s link to its
/// `pos`-th neighbor is `links[offsets[p] + pos]`.
struct Link<R> {
    /// Last `write` broadcast received from the neighbor.
    mirror: Obs<R>,
    /// This round's response; `None` while it is still owed. Only read
    /// while the node is `Snapshotting`, and reset when it starts to.
    resp: Option<Obs<R>>,
}

enum Ev {
    /// A frame arrives at its destination, encoded in the run's codec.
    Deliver { payload: Vec<u8> },
    /// A process starts its next round.
    Activate { node: usize },
    /// Retransmit timer for one `snapshot_req`.
    Retransmit { node: usize, round: u64, nbr: usize },
    /// A process crashes (from the fault plan).
    Crash { node: usize },
}

pub(crate) enum Mode<'t> {
    /// Draw fault decisions from the network RNG, record them.
    Record,
    /// Take fault decisions from a recorded trace, verbatim.
    Replay {
        entries: &'t [TraceEntry],
        pos: usize,
    },
}

impl<'t> Mode<'t> {
    pub(crate) fn replay(trace: &'t DeliveryTrace) -> Self {
        Mode::Replay {
            entries: &trace.entries,
            pos: 0,
        }
    }
}

/// Decides the fate of one send — drawn from the RNG in [`Mode::Record`],
/// read back verbatim in [`Mode::Replay`]. Shared by the register
/// protocol and the decoupled gossip runner so both replay identically.
///
/// A replayed entry must match the send's link, kind and time, and may
/// not deliver (or duplicate) before `now`: the calendar queue cannot
/// schedule into the past, so a tampered or foreign trace panics here
/// instead of being silently misdelivered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_fate(
    plan: &FaultPlan,
    mode: &mut Mode<'_>,
    rng: &mut StdRng,
    now: u64,
    from: usize,
    to: usize,
    kind: FrameKind,
    seq: u64,
) -> (Outcome, Option<u64>) {
    match mode {
        Mode::Record => match crate::faults::draw_fate(plan, rng, now, from, to) {
            Fate::PartitionDrop => (Outcome::PartitionDrop, None),
            Fate::Drop => (Outcome::Drop, None),
            Fate::Deliver { delay, dup_extra } => {
                let at = now + delay;
                (Outcome::Deliver { at }, dup_extra.map(|d| at + d))
            }
        },
        Mode::Replay { entries, pos } => {
            let e = entries.get(*pos).unwrap_or_else(|| {
                panic!("replay trace exhausted at send #{seq} ({kind} {from}->{to})")
            });
            assert!(
                e.from == from && e.to == to && e.kind == kind && e.t == now,
                "replay trace diverged at send #{seq}: \
                 trace has {} {}->{} at t={}, run sent {kind} {from}->{to} at t={now}",
                e.kind,
                e.from,
                e.to,
                e.t,
            );
            let at = match e.outcome {
                Outcome::Deliver { at } => Some(at),
                Outcome::Drop | Outcome::PartitionDrop => None,
            };
            if let Some(early) = at.into_iter().chain(e.dup_at).find(|&t| t < now) {
                panic!(
                    "replay trace diverged at send #{seq}: \
                     {kind} {from}->{to} sent at t={now} is delivered at t={early}"
                );
            }
            *pos += 1;
            (e.outcome, e.dup_at)
        }
    }
}

struct Sim<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    plan: &'a FaultPlan,
    cfg: &'a NetConfig,
    nodes: Vec<Node<A::Reg>>,
    /// Each node's algorithm state, apart from [`Node`]: only a round's
    /// write and commit touch it, while every event reads its node.
    states: Vec<A::State>,
    /// Per-neighbor state of every node, flat (see [`Link`]).
    links: Vec<Link<A::Reg>>,
    /// CSR offsets into `links`: node `p` owns `offsets[p]..offsets[p + 1]`.
    offsets: Vec<usize>,
    /// Scratch view buffer reused by every round commit.
    view: Vec<Option<A::Reg>>,
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
    events: Vec<RtEvent>,
    seq: u64,
    /// Count of nodes still `Working` — maintained at the two status
    /// transitions so the event loop's stop check is O(1), not an O(n)
    /// scan per event.
    working: usize,
}

impl<'a, A> Sim<'a, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
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
        let states = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| alg.init(ProcessId(i), input))
            .collect();
        let nodes = (0..n)
            .map(|_| Node {
                status: Status::Working,
                round: 0,
                phase: Phase::Idle,
                reg: None,
            })
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for p in topo.nodes() {
            offsets.push(offsets[p.index()] + topo.degree(p));
        }
        let links = (0..offsets[n])
            .map(|_| Link {
                mirror: None,
                resp: None,
            })
            .collect();
        let mut sim = Sim {
            alg,
            topo,
            plan,
            cfg,
            nodes,
            states,
            links,
            offsets,
            view: Vec::with_capacity(topo.max_degree()),
            outputs: (0..n).map(|_| None).collect(),
            rounds: vec![0; n],
            queue: EventQueue::new(),
            now: 0,
            net_rng: StdRng::seed_from_u64(cfg.seed),
            // A disjoint stream for timing: jitter draws must not
            // perturb fault draws (or replay would change timing).
            timing_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            mode,
            trace: DeliveryTrace::default(),
            stats: NetStats::default(),
            codec: FrameCodec::new(cfg.codec),
            events: Vec::new(),
            seq: 0,
            working: n,
        };
        for node in 0..n {
            let jitter = sim.jitter();
            sim.schedule(1 + jitter, Ev::Activate { node });
        }
        for c in &plan.crashes {
            if c.node < n {
                sim.schedule(c.at.max(1), Ev::Crash { node: c.node });
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

    fn schedule(&mut self, at: u64, ev: Ev) {
        self.queue.push(at, ev);
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
                    if self.nodes[node].status == Status::Working {
                        self.nodes[node].status = Status::Crashed;
                        self.working -= 1;
                    }
                }
                Ev::Activate { node } => self.on_activate(node),
                Ev::Deliver { payload } => self.on_deliver(payload),
                Ev::Retransmit { node, round, nbr } => self.on_retransmit(node, round, nbr),
            }
        }
        let crashed = self.ids_with(Status::Crashed);
        let stalled = self.ids_with(Status::Working);
        NetReport {
            outputs: self.outputs,
            rounds: self.rounds,
            crashed,
            stalled,
            time: self.now,
            events: self.events,
            trace: self.trace,
            stats: self.stats,
            codec: self.codec.codec(),
            wire: self.codec.stats(),
        }
    }

    fn ids_with(&self, status: Status) -> Vec<ProcessId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| nd.status == status)
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// Operation 1 of the round: publish over loopback.
    fn on_activate(&mut self, node: usize) {
        if self.nodes[node].status != Status::Working {
            return;
        }
        let value = self.alg.publish(&self.states[node]).to_value();
        let round = self.nodes[node].round;
        self.nodes[node].phase = Phase::AwaitWrite;
        self.send_loopback(node, Body::Write(Write { round, value }));
    }

    /// Loopback is the process's access to its own register: reliable,
    /// one tick, never drawn against the fault plan. It still goes
    /// through the codec: a real co-located register server would parse
    /// the frame too, so the loopback leg is honest hot-path work.
    fn send_loopback(&mut self, node: usize, body: Body) {
        let payload = self.codec.encode(node, node, &body);
        self.stats.loopback_writes += 1;
        self.schedule(self.now + 1, Ev::Deliver { payload });
    }

    fn on_deliver(&mut self, payload: Vec<u8>) {
        let frame = self.codec.decode(payload);
        match frame.body {
            Body::Write(w) => {
                if frame.src == frame.dest {
                    self.on_own_write(frame.dest, w);
                } else {
                    self.on_mirror_write(frame.src, frame.dest, w);
                }
            }
            Body::SnapshotReq(r) => {
                // Register servers are substrate memory: they answer
                // even when their process crashed or returned.
                if self.nodes[frame.dest].status == Status::Crashed {
                    self.stats.served_dead_reads += 1;
                }
                let (value, stamp) = match &self.nodes[frame.dest].reg {
                    Some((reg, s)) => (Some(reg.to_value()), *s),
                    None => (None, 0),
                };
                let resp = Body::SnapshotResp(SnapshotResp {
                    round: r.round,
                    value,
                    stamp,
                });
                self.send(frame.dest, frame.src, &resp);
            }
            Body::SnapshotResp(r) => self.on_resp(frame.src, frame.dest, r),
            // The discrete-event simulator's wire carries only the
            // register subset of the shared vocabulary; control frames
            // belong to the real-process cluster substrate.
            other => unreachable!("control frame `{}` on the simulator wire", other.kind()),
        }
    }

    /// The loopback write lands: apply it, then start the snapshot.
    fn on_own_write(&mut self, node: usize, w: Write) {
        let round = w.round;
        let stamp = round + 1;
        if stamp > obs_stamp(&self.nodes[node].reg) {
            self.nodes[node].reg = Some((decode(&w.value), stamp));
        }
        // The rest of the round is process behavior: skip it if the
        // process crashed while the write was in flight (a legal §2
        // crash point — the write itself still happened).
        if self.nodes[node].status != Status::Working
            || self.nodes[node].phase != Phase::AwaitWrite
            || self.nodes[node].round != round
        {
            return;
        }
        // `topo` is a shared borrow living as long as the sim, so the
        // neighbor slice needs no per-round collection.
        let neighbors: &[ProcessId] = self.topo.neighbors(ProcessId(node));
        if neighbors.is_empty() {
            self.commit_round(node);
            return;
        }
        // The register holds the decoded value, so the broadcast takes
        // the delivered payload itself — the byte codecs serialize it
        // straight from the borrowed body.
        let wbody = Body::Write(w);
        let req = Body::SnapshotReq(SnapshotReq { round });
        self.nodes[node].phase = Phase::Snapshotting;
        let base = self.offsets[node];
        for (pos, &q) in neighbors.iter().enumerate() {
            self.send(node, q.index(), &wbody);
            self.links[base + pos].resp = None;
            self.send(node, q.index(), &req);
            self.schedule(
                self.now + self.cfg.rto,
                Ev::Retransmit {
                    node,
                    round,
                    nbr: pos,
                },
            );
        }
    }

    /// A neighbor's `write` broadcast: warm the mirror (monotone in the
    /// freshness stamp, so reordered broadcasts can't roll it back).
    fn on_mirror_write(&mut self, src: usize, dest: usize, w: Write) {
        let Some(pos) = self.neighbor_pos(dest, src) else {
            return;
        };
        let stamp = w.round + 1;
        let link = &mut self.links[self.offsets[dest] + pos];
        if stamp > obs_stamp(&link.mirror) {
            link.mirror = Some((decode(&w.value), stamp));
        }
    }

    fn on_resp(&mut self, src: usize, dest: usize, r: SnapshotResp) {
        let nd = &self.nodes[dest];
        if nd.status != Status::Working || nd.phase != Phase::Snapshotting || nd.round != r.round {
            return; // stale round or duplicate after commit
        }
        let Some(pos) = self.neighbor_pos(dest, src) else {
            return;
        };
        let slot = &mut self.links[self.offsets[dest] + pos].resp;
        if slot.is_some() {
            return; // duplicate response: idempotent
        }
        *slot = Some(r.value.map(|v| (decode(&v), r.stamp)));
        if self.links[self.offsets[dest]..self.offsets[dest + 1]]
            .iter()
            .all(|l| l.resp.is_some())
        {
            self.commit_round(dest);
        }
    }

    fn on_retransmit(&mut self, node: usize, round: u64, nbr: usize) {
        let nd = &self.nodes[node];
        if nd.status != Status::Working
            || nd.phase != Phase::Snapshotting
            || nd.round != round
            || self.links[self.offsets[node] + nbr].resp.is_some()
        {
            return; // answered (or round moved on): timer dies
        }
        self.stats.retransmits += 1;
        let q = self.topo.neighbors(ProcessId(node))[nbr].index();
        self.send(node, q, &Body::SnapshotReq(SnapshotReq { round }));
        self.schedule(self.now + self.cfg.rto, Ev::Retransmit { node, round, nbr });
    }

    /// All responses in: merge views, run the algorithm step.
    fn commit_round(&mut self, node: usize) {
        let round = self.nodes[node].round;
        let links = &mut self.links[self.offsets[node]..self.offsets[node + 1]];
        self.view.clear();
        self.view.extend(links.iter_mut().map(|link| {
            // The response is consumed (it is reset at the next round's
            // write anyway); the mirror persists, so it is cloned — but
            // only when it actually wins, which on a healthy link it
            // never does (a response ties-or-beats a mirror of the same
            // stamp).
            let resp = link
                .resp
                .take()
                .expect("commit only fires once every neighbor answered");
            let merged = if obs_stamp(&link.mirror) > obs_stamp(&resp) {
                link.mirror.clone()
            } else {
                resp
            };
            merged.map(|(reg, _)| reg)
        }));
        if self.cfg.record_events {
            let neighbor_ids: Vec<usize> = self
                .topo
                .neighbors(ProcessId(node))
                .iter()
                .map(|q| q.index())
                .collect();
            self.emit_round_block(node, round, &neighbor_ids);
        }
        let step = self
            .alg
            .step(&mut self.states[node], &Neighborhood::new(&self.view));
        self.rounds[node] += 1;
        match step {
            Step::Continue => {
                self.nodes[node].round += 1;
                self.nodes[node].phase = Phase::Idle;
                let jitter = self.jitter();
                self.schedule(self.now + 1 + jitter, Ev::Activate { node });
            }
            Step::Return(o) => {
                self.outputs[node] = Some(o);
                self.nodes[node].status = Status::Returned;
                self.nodes[node].phase = Phase::Idle;
                self.working -= 1;
                // The register server keeps serving the final value.
            }
        }
    }

    /// One contiguous Lock*/Write/Read*/Unlock* block recording this
    /// round's commit-time serialization (same shape the OS-thread
    /// runtime emits, so the `ftcolor-analyze` race rules apply).
    fn emit_round_block(&mut self, node: usize, round: u64, neighbor_ids: &[usize]) {
        let mut closed: Vec<usize> = neighbor_ids.to_vec();
        closed.push(node);
        closed.sort_unstable();
        closed.dedup();
        let log = |events: &mut Vec<RtEvent>, seq: &mut u64, register, kind| {
            events.push(RtEvent {
                seq: *seq,
                process: node,
                round,
                register,
                kind,
            });
            *seq += 1;
        };
        for &r in &closed {
            log(&mut self.events, &mut self.seq, r, RtEventKind::Lock);
        }
        log(&mut self.events, &mut self.seq, node, RtEventKind::Write);
        for &r in neighbor_ids {
            log(&mut self.events, &mut self.seq, r, RtEventKind::Read);
        }
        for &r in &closed {
            log(&mut self.events, &mut self.seq, r, RtEventKind::Unlock);
        }
    }

    fn neighbor_pos(&self, of: usize, who: usize) -> Option<usize> {
        self.topo
            .neighbors(ProcessId(of))
            .iter()
            .position(|q| q.index() == who)
    }

    /// The fault-prone network path. Draws (or replays) this send's
    /// fate, records it in the trace, schedules deliveries. The fate is
    /// drawn *before* any encoding — fates depend only on (plan, rng,
    /// time, link), so codec choice cannot perturb the trace, and
    /// dropped sends are never serialized at all.
    fn send(&mut self, from: usize, to: usize, body: &Body) {
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
                let payload = self.codec.encode(from, to, body);
                // Copy for the duplicate first, but schedule the primary
                // first: tick order (the tie-break) must match the
                // original primary-then-duplicate schedule.
                let dup = dup_at.map(|_| self.codec.copy(&payload));
                self.schedule(at, Ev::Deliver { payload });
                if let (Some(d), Some(dup)) = (dup_at, dup) {
                    self.stats.duplicated += 1;
                    self.schedule(d, Ev::Deliver { payload: dup });
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

fn obs_stamp<R>(o: &Obs<R>) -> u64 {
    o.as_ref().map_or(0, |(_, s)| *s)
}

/// Decodes a register payload that arrived over the wire.
fn decode<R: Deserialize>(v: &Value) -> R {
    R::from_value(v).expect("register payloads decode")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{PairColor, SixColoring};
    use ftcolor_model::inputs;

    fn cycle(n: usize) -> Topology {
        Topology::cycle(n).expect("cycles need n >= 3")
    }

    fn assert_proper(topo: &Topology, outputs: &[Option<PairColor>]) {
        for p in 0..topo.len() {
            for q in topo.neighbors(ProcessId(p)) {
                if let (Some(a), Some(b)) = (&outputs[p], &outputs[q.index()]) {
                    assert_ne!(a, b, "neighbors {p} and {} share a color", q.index());
                }
            }
        }
    }

    #[test]
    fn clean_network_colors_the_cycle() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 7);
        let report = run_net(
            &SixColoring,
            &topo,
            ids,
            &FaultPlan::default(),
            &NetConfig::new(42),
        );
        assert!(report.all_returned(), "stalled: {:?}", report.stalled);
        assert_proper(&topo, &report.outputs);
        assert!(report.stats.sent > 0, "snapshots travel over the network");
        assert_eq!(report.stats.dropped, 0, "a clean plan drops nothing");
    }

    #[test]
    fn same_seed_same_plan_is_byte_identical() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 3);
        let plan = FaultPlan::lossy(0.2);
        let a = run_net(&SixColoring, &topo, ids.clone(), &plan, &NetConfig::new(9));
        let b = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(9));
        assert_eq!(a.trace.to_json(), b.trace.to_json(), "byte-identical trace");
        assert_eq!(a.outputs, b.outputs, "identical coloring");
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn replay_reproduces_a_lossy_run_without_the_rng() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 5);
        let mut plan = FaultPlan::lossy(0.25);
        plan.duplicate = 0.1;
        plan.reorder = 0.15;
        let cfg = NetConfig::new(13);
        let orig = run_net(&SixColoring, &topo, ids.clone(), &plan, &cfg);
        assert!(orig.all_returned());
        let again = replay_net(&SixColoring, &topo, ids, &plan, &cfg, &orig.trace);
        assert_eq!(again.outputs, orig.outputs);
        assert_eq!(again.trace, orig.trace, "replay echoes the trace");
        assert_eq!(again.time, orig.time);
    }

    #[test]
    fn a_crashed_node_stops_but_neighbors_still_terminate() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 1);
        let plan = FaultPlan::default().with_crash(2, 3);
        let report = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(4));
        if report.crashed == vec![ProcessId(2)] {
            assert_eq!(report.outputs[2], None);
        }
        for p in [0, 1, 3, 4] {
            assert!(
                report.outputs[p].is_some(),
                "correct process {p} must terminate (stalled: {:?})",
                report.stalled
            );
        }
        assert!(report.stalled.is_empty());
        assert_proper(&topo, &report.outputs);
    }

    #[test]
    fn codec_choice_never_changes_semantics() {
        let topo = cycle(8);
        let ids = inputs::random_unique(8, 10_000, 3);
        let mut plan = FaultPlan::lossy(0.2);
        plan.duplicate = 0.1;
        plan.reorder = 0.15;
        let base = NetConfig::new(9).record_events(true);
        let json = run_net(&SixColoring, &topo, ids.clone(), &plan, &base);
        let binary = run_net(&SixColoring, &topo, ids, &plan, &base.codec(Codec::Binary));
        assert_eq!(binary.outputs, json.outputs, "coloring");
        assert_eq!(binary.trace, json.trace, "trace");
        assert_eq!(binary.events, json.events, "event log");
        assert_eq!(binary.stats, json.stats, "counters");
        assert_eq!(binary.time, json.time, "clock");
        assert!(json.wire.bytes_on_wire > binary.wire.bytes_on_wire);
        assert!(binary.wire.pool_hits > 0, "steady state reuses buffers");
    }

    #[test]
    fn dead_register_servers_keep_answering_and_are_counted() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 1);
        // Crash node 2 early: its neighbors still need its register.
        let plan = FaultPlan::default().with_crash(2, 3);
        let report = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(4));
        if report.crashed == vec![ProcessId(2)] {
            assert!(
                report.stats.served_dead_reads > 0,
                "neighbors read the crashed node's register"
            );
        }
    }

    #[test]
    fn event_log_blocks_are_contiguous_per_round() {
        let topo = cycle(5);
        let ids = inputs::random_unique(5, 10_000, 2);
        let cfg = NetConfig::new(11).record_events(true);
        let report = run_net(&SixColoring, &topo, ids, &FaultPlan::default(), &cfg);
        assert!(!report.events.is_empty());
        for w in report.events.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq, "seq is gap-free");
        }
        // Each commit block: 3 locks, 1 write, 2 reads, 3 unlocks.
        assert_eq!(report.events.len() % 9, 0);
    }
}
