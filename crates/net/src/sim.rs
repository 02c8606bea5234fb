//! The discrete-event network simulator.
//!
//! # Protocol
//!
//! The round itself — publish, own write, broadcast and
//! `snapshot_req`s, stamp-fresher commit, step — is the
//! [`crate::protocol`] machine, shared with the cluster node, and
//! register servers keep answering after their process crashes or
//! returns. This driver adds what a network adds: the own `write`
//! travels one reliable tick on a **loopback** link (a process never
//! loses access to its own register), every `snapshot_req` arms a
//! retransmit timer firing every `rto` ticks until answered, every
//! other send draws its fate from the fault plan, a committed round
//! schedules the next `Activate` after a jittered delay, and a planned
//! crash halts the process mid-protocol.
//!
//! # Determinism
//!
//! All network nondeterminism (drop/delay/duplicate/reorder draws) comes
//! from one RNG seeded with `cfg.seed`, consumed in send order; all
//! timing nondeterminism (activation jitter) from a second stream
//! derived from the same seed. Events sit in a calendar queue that pops
//! in `(time, tick)` order with a monotonic tie-break tick. There is no
//! `Instant::now` anywhere in the simulation path, so a `(seed, plan)`
//! pair fully determines the run: byte-identical delivery trace,
//! identical coloring. [`replay_net`] re-runs a recorded trace without
//! touching the network RNG at all.

use ftcolor_model::{Algorithm, ProcessId, Step, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::calendar::EventQueue;
use crate::faults::{Fate, FaultPlan};
use crate::msg::Msg;
use crate::protocol::{Link, Machine, Outbox, Phase, Proc};
use crate::trace::{self, DeliveryTrace, FrameKind, Outcome, TraceEntry};
use crate::wire::{decode_msg, encode_msg_into, Codec, WireStats};

/// The logical time that never comes. Times saturate here instead of
/// wrapping (a fault plan may ask for a delay of `u64::MAX` ticks), and
/// an event at it never fires, whatever the time cap.
const NEVER: u64 = u64::MAX;

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
    /// Has no effect: the simulator keeps no event log. Kept only for
    /// the benchmark's report; it goes with the next benchmark change.
    pub record_events: bool,
    /// The wire encoding, always [`Codec::Binary`]: frames in flight are
    /// binary only. Kept only for the benchmark's report; it goes with
    /// the next benchmark change.
    pub codec: Codec,
}

impl NetConfig {
    /// Defaults: jitter 3, rto 16, max_time 100 000.
    pub fn new(seed: u64) -> Self {
        NetConfig {
            seed,
            act_jitter: 3,
            rto: 16,
            max_time: 100_000,
            record_events: false,
            codec: Codec::Binary,
        }
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

    /// Sets [`NetConfig::codec`]. Kept only for the benchmark, which
    /// names it; it goes with the next benchmark change.
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
    /// The delivery trace: every network send and its fate.
    pub trace: DeliveryTrace,
    /// Message/event counters.
    pub stats: NetStats,
    /// Frame/byte/pool counters of the binary wire.
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

/// One send as a replay compares it with its trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Message kind.
    pub kind: FrameKind,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Logical send time.
    pub t: u64,
}

/// Why a recorded trace does not replay: the trace and the run part
/// ways at send `seq`, which means trace and `(alg, topo, inputs, plan,
/// cfg)` don't belong together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The run sent more messages than the trace records.
    Exhausted {
        /// The send with no entry.
        seq: usize,
        /// What the run sent.
        sent: Sent,
    },
    /// The entry names another link, kind or send time.
    Diverged {
        /// The send whose entry does not match.
        seq: usize,
        /// What the trace records.
        recorded: Sent,
        /// What the run sent.
        sent: Sent,
    },
    /// The entry delivers, or duplicates, before its send: the calendar
    /// queue cannot schedule into the past.
    BackDated {
        /// The back-dated send.
        seq: usize,
        /// What the run sent.
        sent: Sent,
        /// The delivery time before `sent.t`.
        at: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplayError::Exhausted { seq, sent } => {
                let Sent { kind, from, to, .. } = sent;
                write!(
                    f,
                    "replay trace exhausted at send #{seq} ({kind} {from}->{to})"
                )
            }
            ReplayError::Diverged {
                seq,
                recorded: r,
                sent: Sent { kind, from, to, t },
            } => write!(
                f,
                "replay trace diverged at send #{seq}: trace has {} {}->{} at t={}, \
                 run sent {kind} {from}->{to} at t={t}",
                r.kind, r.from, r.to, r.t
            ),
            ReplayError::BackDated {
                seq,
                sent: Sent { kind, from, to, t },
                at,
            } => write!(
                f,
                "replay trace diverged at send #{seq}: \
                 {kind} {from}->{to} sent at t={t} is delivered at t={at}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The report of a run that records its trace: it cannot diverge from
/// a trace it is writing.
pub(crate) fn recorded<O>(report: Result<NetReport<O>, ReplayError>) -> NetReport<O> {
    report.unwrap_or_else(|e| unreachable!("a recording run replayed nothing: {e}"))
}

/// Runs `alg` on the simulated network under `plan`, drawing all fault
/// decisions from `cfg.seed`.
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`.
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
    recorded(Sim::new(alg, topo, inputs, plan, cfg, None).run())
}

/// Re-runs a recorded [`DeliveryTrace`] bit-for-bit: the network RNG is
/// never consulted, every send takes the fate the trace recorded for
/// it. `plan` is still needed for its crash schedule (crashes are plan
/// events, not network draws).
///
/// # Errors
///
/// The trace diverges from the run: a different send sequence or send
/// time, or a delivery scheduled before its send. The run stops at the
/// first such send.
///
/// # Panics
///
/// Panics if `inputs.len() != topo.len()`.
pub fn replay_net<A>(
    alg: &A,
    topo: &Topology,
    inputs: Vec<A::Input>,
    plan: &FaultPlan,
    cfg: &NetConfig,
    trace: &DeliveryTrace,
) -> Result<NetReport<A::Output>, ReplayError>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    Sim::new(alg, topo, inputs, plan, cfg, Some(trace)).run()
}

// ------------------------------------------------------------ internals

/// A simulator event: 16 bytes, so the queue's memory is a small
/// multiple of the events in flight. Node, neighbor position and round
/// are `u32`, as on the wire.
enum Ev {
    /// A binary frame arrives at its destination.
    Deliver { frame: FrameRef },
    /// A process starts its next round.
    Activate { node: u32 },
    /// Retransmit timer for one `snapshot_req`.
    Retransmit { node: u32, round: u32, nbr: u32 },
    /// A process crashes (from the fault plan).
    Crash { node: u32 },
}

impl From<FrameRef> for Ev {
    fn from(frame: FrameRef) -> Self {
        Ev::Deliver { frame }
    }
}

/// A node id or neighbor position as an event field.
pub(crate) fn id32(node: usize) -> u32 {
    u32::try_from(node).expect("node ids fit in u32, as on the wire")
}

/// An encoded frame in flight: its slot in the [`Net`]'s frame slab.
#[derive(Clone, Copy)]
pub(crate) struct FrameRef(u32);

/// Frame bytes a slab slot holds inline.
const INLINE: usize = 62;

/// One slab slot, a cache line: a short frame itself, or the index of a
/// longer frame's buffer. A delivery then reads one line of the slab,
/// where a boxed buffer would cost a second, dependent miss.
#[derive(Clone, Copy)]
#[repr(align(64))]
enum Slot {
    /// A frame of at most [`INLINE`] bytes.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// A longer frame: its buffer's index in [`FrameSlab::long`].
    Long(u32),
}

/// The encoded frames in flight. A delivered frame's slot goes on a
/// free list and holds the next encoded frame: a reused slot is a pool
/// hit, a new one a miss. So the slab grows to the peak number of
/// frames in flight, never with the length of the run.
#[derive(Default)]
struct FrameSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Buffers of frames longer than [`INLINE`], recycled the same way.
    long: Vec<Vec<u8>>,
    free_long: Vec<u32>,
    /// Where every frame is encoded before it is stored.
    scratch: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl FrameSlab {
    /// Stores the frame in `scratch` in a free slot.
    fn store(&mut self) -> FrameRef {
        let len = self.scratch.len();
        let entry = if len <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..len].copy_from_slice(&self.scratch);
            Slot::Inline {
                len: len as u8,
                bytes,
            }
        } else {
            // The long buffer takes the frame, and the scratch buffer
            // takes the long buffer's old storage.
            let index = self.free_long.pop().unwrap_or_else(|| {
                self.long.push(Vec::new());
                u32::try_from(self.long.len() - 1).expect("fewer than 2^32 frames in flight")
            });
            std::mem::swap(&mut self.scratch, &mut self.long[index as usize]);
            Slot::Long(index)
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.hits += 1;
            self.slots[slot as usize] = entry;
            slot
        } else {
            self.misses += 1;
            self.slots.push(entry);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 frames in flight")
        };
        FrameRef(slot)
    }

    /// Stores a copy of `frame` in a free slot.
    fn copy(&mut self, frame: FrameRef) -> FrameRef {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend_from_slice(self.bytes(frame));
        self.scratch = buf;
        self.store()
    }

    /// The bytes of `frame`.
    fn bytes(&self, FrameRef(slot): FrameRef) -> &[u8] {
        match &self.slots[slot as usize] {
            Slot::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Slot::Long(index) => &self.long[*index as usize],
        }
    }

    /// Frees `frame`'s slot (and its long buffer) for reuse.
    fn release(&mut self, FrameRef(slot): FrameRef) {
        if let Slot::Long(index) = self.slots[slot as usize] {
            self.free_long.push(index);
        }
        self.free.push(slot);
    }
}

enum Mode<'t> {
    /// Draw fault decisions from the network RNG, record them.
    Record,
    /// Take fault decisions from a recorded trace, verbatim.
    Replay(trace::Iter<'t>),
}

/// The simulated network both simulators run on: the event queue and
/// its logical clock, the fault-prone binary wire with its frame slab
/// and counters, and the activation-timing stream. A delivered frame
/// becomes the event `E::from(frame)`.
pub(crate) struct Net<'a, E> {
    plan: &'a FaultPlan,
    pub(crate) cfg: &'a NetConfig,
    queue: EventQueue<E>,
    now: u64,
    rng: StdRng,
    timing_rng: StdRng,
    mode: Mode<'a>,
    trace: DeliveryTrace,
    stats: NetStats,
    frames: FrameSlab,
    wire: WireStats,
    /// The replayed trace diverged here: the run stops.
    diverged: Option<ReplayError>,
}

impl<'a, E: From<FrameRef>> Net<'a, E> {
    /// A network that draws fates from `cfg.seed`, or replays `trace`.
    pub(crate) fn new(
        plan: &'a FaultPlan,
        cfg: &'a NetConfig,
        trace: Option<&'a DeliveryTrace>,
    ) -> Self {
        let mode = trace.map_or(Mode::Record, |t| Mode::Replay(t.entries.iter()));
        Net {
            plan,
            cfg,
            queue: EventQueue::new(),
            now: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            // A disjoint stream for timing: jitter draws must not
            // perturb fault draws (or replay would change timing).
            timing_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15),
            mode,
            trace: DeliveryTrace::default(),
            stats: NetStats::default(),
            frames: FrameSlab::default(),
            wire: WireStats::default(),
            diverged: None,
        }
    }

    /// Pops the next event and advances the clock to it; `None` once
    /// nothing is `working` any more, the queue is empty, the next
    /// event lies beyond the time cap or at [`NEVER`], or a replay
    /// diverged.
    pub(crate) fn next(&mut self, working: usize) -> Option<E> {
        let (at, ev) = self.queue.pop()?;
        if working == 0 || self.diverged.is_some() {
            return None;
        }
        if at > self.cfg.max_time || at == NEVER {
            self.now = self.cfg.max_time;
            return None;
        }
        self.now = at;
        self.stats.events_processed += 1;
        Some(ev)
    }

    pub(crate) fn schedule(&mut self, delay: u64, ev: E) {
        self.queue.push(self.now.saturating_add(delay), ev);
    }

    /// An activation delay: 1 tick plus uniform jitter in
    /// `0..=act_jitter`.
    pub(crate) fn activation_delay(&mut self) -> u64 {
        if self.cfg.act_jitter == 0 {
            1
        } else {
            1 + self.timing_rng.gen_range(0..=self.cfg.act_jitter)
        }
    }

    /// Encodes a message for transit, charging the byte counters. The
    /// register is serialized straight from its borrowed type, so
    /// broadcasting one `write` to every neighbor never clones it.
    fn encode<P: Serialize>(&mut self, src: usize, dest: usize, msg: &Msg<P>) -> FrameRef {
        let buf = &mut self.frames.scratch;
        buf.clear();
        encode_msg_into(src, dest, msg, buf);
        self.wire.frames_encoded += 1;
        self.wire.bytes_on_wire += buf.len() as u64;
        self.frames.store()
    }

    /// Decodes a delivered frame into `(src, dest, message)`, its
    /// register decoded straight into `R`, freeing its slab slot.
    ///
    /// # Panics
    ///
    /// The frame does not decode: the simulator encoded it itself, so
    /// that is a bug.
    pub(crate) fn decode<R: Deserialize>(&mut self, frame: FrameRef) -> (usize, usize, Msg<R>) {
        let bytes = self.frames.bytes(frame);
        let decoded = decode_msg(bytes);
        self.wire.frames_decoded += 1;
        self.frames.release(frame);
        decoded.unwrap_or_else(|e| panic!("simulator wire: {e}"))
    }

    /// The fault-prone network path. Draws (or replays) this send's
    /// fate, records it in the trace, schedules deliveries. The fate is
    /// drawn *before* any encoding — fates depend only on (plan, rng,
    /// time, link), so the wire format cannot perturb the trace, and
    /// dropped sends are never serialized at all.
    pub(crate) fn transmit<P: Serialize>(&mut self, from: usize, to: usize, msg: Msg<P>) {
        let kind = msg.kind();
        if self.diverged.is_some() {
            return;
        }
        let (outcome, dup_at) = match self.fate(from, to, kind) {
            Ok(fate) => fate,
            Err(e) => {
                self.diverged = Some(e);
                return;
            }
        };
        self.stats.sent += 1;
        let seq = self.trace.len() as u64;
        match outcome {
            Outcome::Deliver { at } => {
                self.stats.delivered += 1;
                let frame = self.encode(from, to, &msg);
                // Copy for the duplicate first, but schedule the primary
                // first: tick order (the tie-break) must match the
                // original primary-then-duplicate schedule.
                let dup = dup_at.map(|_| {
                    self.wire.bytes_on_wire += self.frames.bytes(frame).len() as u64;
                    self.frames.copy(frame)
                });
                self.queue.push(at, frame.into());
                if let (Some(d), Some(dup)) = (dup_at, dup) {
                    self.stats.duplicated += 1;
                    self.queue.push(d, dup.into());
                }
            }
            Outcome::Drop => self.stats.dropped += 1,
            Outcome::PartitionDrop => self.stats.partition_dropped += 1,
        }
        self.trace.entries.push(TraceEntry {
            seq,
            t: self.now,
            from: id32(from),
            to: id32(to),
            kind,
            outcome,
            dup_at,
        });
    }

    /// Decides the fate of one send — drawn from the RNG in
    /// [`Mode::Record`], read back verbatim in [`Mode::Replay`].
    ///
    /// A replayed entry must match the send's link, kind and time, and
    /// may not deliver (or duplicate) before `now`: the calendar queue
    /// cannot schedule into the past, so a tampered or foreign trace
    /// is refused here instead of being silently misdelivered.
    fn fate(
        &mut self,
        from: usize,
        to: usize,
        kind: FrameKind,
    ) -> Result<(Outcome, Option<u64>), ReplayError> {
        let seq = self.trace.len();
        let now = self.now;
        let sent = Sent {
            kind,
            from,
            to,
            t: now,
        };
        match &mut self.mode {
            Mode::Record => Ok(
                match crate::faults::draw_fate(self.plan, &mut self.rng, now, from, to) {
                    Fate::PartitionDrop => (Outcome::PartitionDrop, None),
                    Fate::Drop => (Outcome::Drop, None),
                    Fate::Deliver { delay, dup_extra } => {
                        let at = now.saturating_add(delay);
                        (
                            Outcome::Deliver { at },
                            dup_extra.map(|d| at.saturating_add(d)),
                        )
                    }
                },
            ),
            Mode::Replay(entries) => {
                let e = entries.next().ok_or(ReplayError::Exhausted { seq, sent })?;
                let recorded = Sent {
                    kind: e.kind,
                    from: e.from as usize,
                    to: e.to as usize,
                    t: e.t,
                };
                if recorded != sent {
                    return Err(ReplayError::Diverged {
                        seq,
                        recorded,
                        sent,
                    });
                }
                let at = match e.outcome {
                    Outcome::Deliver { at } => Some(at),
                    Outcome::Drop | Outcome::PartitionDrop => None,
                };
                if let Some(at) = at.into_iter().chain(e.dup_at).find(|&t| t < now) {
                    return Err(ReplayError::BackDated { seq, sent, at });
                }
                Ok((e.outcome, e.dup_at))
            }
        }
    }

    /// The run's report: the network's share, plus the simulator's.
    ///
    /// # Errors
    ///
    /// The replayed trace diverged from the run.
    pub(crate) fn report<O>(
        self,
        outputs: Vec<Option<O>>,
        rounds: Vec<u64>,
        crashed: Vec<ProcessId>,
        stalled: Vec<ProcessId>,
    ) -> Result<NetReport<O>, ReplayError> {
        if let Some(e) = self.diverged {
            return Err(e);
        }
        Ok(NetReport {
            outputs,
            rounds,
            crashed,
            stalled,
            time: self.now,
            trace: self.trace,
            stats: self.stats,
            wire: WireStats {
                pool_hits: self.frames.hits,
                pool_misses: self.frames.misses,
                ..self.wire
            },
        })
    }
}

impl Net<'_, Ev> {
    /// Loopback is the process's access to its own register: reliable,
    /// one tick, never drawn against the fault plan. It still goes
    /// through the wire: a real co-located register server would parse
    /// the frame too, so the loopback leg is honest hot-path work.
    fn loopback<R: Serialize>(&mut self, node: usize, round: u64, value: &R) {
        let frame = self.encode(node, node, &Msg::Write { round, value });
        self.stats.loopback_writes += 1;
        self.schedule(1, Ev::Deliver { frame });
    }
}

impl<R: Serialize> Outbox<R> for Net<'_, Ev> {
    fn send(&mut self, src: usize, dest: usize, msg: Msg<&R>) {
        self.transmit(src, dest, msg);
    }

    /// Sends the request and arms its retransmit timer.
    fn request(&mut self, src: usize, pos: usize, dest: usize, round: u64) {
        self.transmit(src, dest, Msg::<&R>::SnapshotReq { round });
        let (node, nbr) = (id32(src), id32(pos));
        let round = u32::try_from(round).expect("rounds fit in u32, as on the wire");
        let rto = self.cfg.rto;
        self.schedule(rto, Ev::Retransmit { node, round, nbr });
    }
}

struct Sim<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    procs: Vec<Proc<A::Reg>>,
    /// Each node's algorithm state, apart from [`Proc`]: only a round's
    /// write and commit touch it, while every event reads its node.
    states: Vec<A::State>,
    /// Per-neighbor state of every node, flat: node `p`'s link to its
    /// `pos`-th neighbor is `links[offsets[p] + pos]`.
    links: Vec<Link<A::Reg>>,
    /// CSR offsets into `links`: node `p` owns `offsets[p]..offsets[p + 1]`.
    offsets: Vec<usize>,
    /// Scratch view buffer reused by every round commit.
    view: Vec<Option<A::Reg>>,
    outputs: Vec<Option<A::Output>>,
    /// Count of nodes not yet halted — maintained at the two halting
    /// transitions so the event loop's stop check is O(1), not an O(n)
    /// scan per event.
    working: usize,
    net: Net<'a, Ev>,
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
        trace: Option<&'a DeliveryTrace>,
    ) -> Self {
        let n = topo.len();
        assert_eq!(inputs.len(), n, "one input per node");
        let states = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| alg.init(ProcessId(i), input))
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for p in topo.nodes() {
            offsets.push(offsets[p.index()] + topo.degree(p));
        }
        let mut net = Net::new(plan, cfg, trace);
        for node in 0..n {
            let delay = net.activation_delay();
            net.schedule(delay, Ev::Activate { node: id32(node) });
        }
        for c in &plan.crashes {
            if c.node < n {
                net.schedule(c.at.max(1), Ev::Crash { node: id32(c.node) });
            }
        }
        Sim {
            alg,
            topo,
            procs: (0..n).map(|_| Proc::default()).collect(),
            states,
            links: (0..offsets[n]).map(|_| Link::default()).collect(),
            offsets,
            view: Vec::with_capacity(topo.max_degree()),
            outputs: (0..n).map(|_| None).collect(),
            working: n,
            net,
        }
    }

    fn run(mut self) -> Result<NetReport<A::Output>, ReplayError> {
        while let Some(ev) = self.net.next(self.working) {
            match ev {
                Ev::Crash { node } => {
                    let proc = &mut self.procs[node as usize];
                    if proc.phase != Phase::Halted {
                        proc.phase = Phase::Halted;
                        self.working -= 1;
                    }
                }
                Ev::Activate { node } => {
                    let node = node as usize;
                    let (mut m, net) = self.machine(node);
                    if let Some((reg, round)) = m.publish() {
                        net.loopback(node, round, &reg);
                    }
                }
                Ev::Deliver { frame } => self.on_deliver(frame),
                Ev::Retransmit { node, round, nbr } => {
                    // Answered, or the round moved on: the timer dies.
                    let (node, nbr, round) = (node as usize, nbr as usize, u64::from(round));
                    let (m, net) = self.machine(node);
                    if m.owes(nbr, round) {
                        net.stats.retransmits += 1;
                        Outbox::<A::Reg>::request(net, node, nbr, m.neighbors[nbr].index(), round);
                    }
                }
            }
        }
        let n = self.procs.len();
        let rounds = (0..n)
            .map(|p| self.procs[p].round + u64::from(self.outputs[p].is_some()))
            .collect();
        let crashed = (0..n).filter(|&p| self.crashed(p)).map(ProcessId).collect();
        let stalled = (0..n)
            .filter(|&p| self.procs[p].phase != Phase::Halted)
            .map(ProcessId)
            .collect();
        self.net.report(self.outputs, rounds, crashed, stalled)
    }

    /// Halted without an output: the fault plan crashed it.
    fn crashed(&self, p: usize) -> bool {
        self.procs[p].phase == Phase::Halted && self.outputs[p].is_none()
    }

    /// Lends node `p`'s parts to the round machine, with the network as
    /// its outbox.
    fn machine(&mut self, p: usize) -> (Machine<'_, A>, &mut Net<'a, Ev>) {
        let machine = Machine {
            alg: self.alg,
            id: p,
            neighbors: self.topo.neighbors(ProcessId(p)),
            proc: &mut self.procs[p],
            state: &mut self.states[p],
            links: &mut self.links[self.offsets[p]..self.offsets[p + 1]],
            view: &mut self.view,
        };
        (machine, &mut self.net)
    }

    fn on_deliver(&mut self, frame: FrameRef) {
        let (src, node, msg) = self.net.decode::<A::Reg>(frame);
        if matches!(msg, Msg::SnapshotReq { .. }) && self.crashed(node) {
            self.net.stats.served_dead_reads += 1;
        }
        let (mut m, net) = self.machine(node);
        let step = match msg {
            Msg::Write { round, value } if src == node => m.on_own_write(round, value, net),
            msg => m.on_msg(src, msg, net),
        };
        // A typed register always decodes.
        if let Some(step) = step.unwrap_or_else(|e| panic!("simulator wire: {e}")) {
            self.committed(node, step);
        }
    }

    /// `node`'s round committed: schedule the next round or keep the
    /// output.
    fn committed(&mut self, node: usize, step: Step<A::Output>) {
        match step {
            Step::Continue => {
                let delay = self.net.activation_delay();
                self.net.schedule(delay, Ev::Activate { node: id32(node) });
            }
            // The register server keeps serving the final value.
            Step::Return(o) => {
                self.outputs[node] = Some(o);
                self.working -= 1;
            }
        }
    }
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
        assert!(report.wire.pool_hits > 0, "steady state reuses slab slots");
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
        let again = replay_net(&SixColoring, &topo, ids, &plan, &cfg, &orig.trace)
            .expect("a run's own trace replays");
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
    fn events_keep_their_size() {
        assert!(std::mem::size_of::<Ev>() <= 16);
        assert_eq!(std::mem::size_of::<Slot>(), 64);
    }

    #[test]
    fn slab_slots_hold_short_and_long_frames_and_are_reused() {
        let pattern: Vec<u8> = (0..=255).collect();
        let mut slab = FrameSlab::default();
        let put = |slab: &mut FrameSlab, len: usize| {
            slab.scratch.clear();
            slab.scratch.extend_from_slice(&pattern[..len]);
            slab.store()
        };
        let short = put(&mut slab, INLINE);
        let long = put(&mut slab, INLINE + 1);
        assert_eq!(slab.bytes(short), &pattern[..INLINE]);
        assert_eq!(slab.bytes(long), &pattern[..=INLINE]);
        assert_eq!((slab.hits, slab.misses), (0, 2));
        slab.release(long);
        slab.release(short);
        let again = put(&mut slab, 3 * INLINE);
        let other = put(&mut slab, 2);
        assert_eq!(slab.bytes(again), &pattern[..3 * INLINE]);
        assert_eq!(slab.bytes(other), &pattern[..2]);
        assert_eq!((slab.hits, slab.misses), (2, 2), "both slots were reused");
        assert_eq!(slab.long.len(), 1, "the long buffer was reused");
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
}
