//! The struct-of-arrays batch engine.
//!
//! One [`BatchEngine`] holds a homogeneous fleet of `C_n` instances.
//! An instance at rest occupies one *slot*: three flat slab rows — a
//! `3n`-word packed row, `n` activation counters, and one time counter
//! — a status byte, and a small control block (its admission index and
//! round, live schedule struct, fuel).
//!
//! The status byte tells the packed row's two layouts apart. A *fresh*
//! slot (admitted, not yet visited) holds the instance's `n`
//! identifiers, each as a low and a high `u32` word (`2n` of the `3n`
//! words); admission interns nothing. A *parked* slot holds `3n`
//! interned slots ([`ConfigCodec`]). A visit swaps the row through a
//! per-worker scratch [`Execution`]: re-initialize it from the
//! identifiers ([`Execution::reinit`]) on the first visit, restore it
//! ([`ConfigCodec::restore_slice`]) on every later one; then up to
//! `quantum` schedule iterations, each resolved into one per-worker
//! buffer ([`Schedule::next_into`]) and stepped over that buffer
//! ([`Execution::step_active`]); then re-encode
//! ([`ConfigCodec::encode_slice`]) if the instance stays in flight. No
//! `Execution` is ever cloned, a step allocates nothing (unless traces
//! are recorded), and no per-instance heap state survives between
//! visits; a parked C5 slot costs 60 bytes of packed slots, 29 of
//! counters and status, and a 120-byte locked control block.
//!
//! Slots are recycled. When a round retires an instance, the prune that
//! follows it — after the workers have joined — puts the slot on a free
//! list, and the next admission takes it, writing the identifiers and
//! resetting counters, status and control block. The slab therefore
//! grows to the most instances ever in flight at once
//! ([`BatchEngine::slots`]), not to the number admitted
//! ([`BatchEngine::admitted`]).
//!
//! ## Two phases per round, and where the memory goes
//!
//! Interned values are released too. A round sweeps its instances in
//! two phases: first the ones parked by earlier rounds, then the ones
//! admitted since (the prune keeps the list in order and admission
//! appends, so the parked ones lead). Between the phases, once every
//! parked instance has been visited, [`ConfigCodec::compact`] drops
//! every interned state, register and output that no still-parked row
//! uses and rewrites those rows to the survivors' new indices; the
//! fresh rows hold identifiers and are left alone. An instance that
//! retires thus takes its values with it by the next round, and a
//! value two instances share is still interned once. Each phase interns
//! at most the `n` states, registers and outputs of each row it parks,
//! so no component ever holds more than `2n` values per instance at the
//! peak in flight, whatever the number admitted or the identifier
//! universe: memory follows what is in flight, which is what makes a
//! stream of millions of instances fit. Between compactions the
//! interners grow; [`BatchEngine::interned_counts`] reports the most
//! values each held at once.
//!
//! ## Equivalence to the sequential executor
//!
//! The visit loop replays [`Execution::run`]'s loop *exactly*: check
//! the working set, check fuel, call `Schedule::next_into(time + 1,
//! working, …)`, crash on `false` (snapshotting the working set), step
//! otherwise. The schedule structs are the real model types (stored
//! per instance, and `next_into` is `next` followed by
//! [`ActivationSet::resolve`]), the first configuration is the one
//! `Execution::new` builds, the step is the real
//! [`Execution::step_active`] that `Execution::step_with` runs, and the
//! time/activation counters are maintained to the same definitions —
//! so outcomes are bit-identical to `Execution::run` by construction,
//! which `tests/batch_equivalence.rs` pins per algorithm, instance,
//! fault pattern, and thread count.
//!
//! ## Sweeps, rounds, and determinism
//!
//! [`BatchEngine::run_round`] visits every in-flight instance exactly
//! once, in chunks its workers claim from one shared cursor
//! ([`sweep::for_each_chunk`], once per phase). Instances
//! never share mutable state, so the thread count affects wall-clock
//! only: every per-instance outcome, every completion round
//! (= latency), and every aggregate over them is identical at
//! `jobs = 1` and `jobs = 64`.
//! Interner *index assignment* does depend on visit interleaving — but
//! indices never leave the engine; only decoded values do. Which values
//! are interned at a phase boundary does not, so neither do the
//! compactions nor [`BatchEngine::interned_counts`].
//!
//! ## When not to batch
//!
//! A single giant ring shares no values with anyone; interning its
//! millions of distinct per-identifier states would cost memory and
//! buy nothing. [`run_materialized`] runs such instances on a live
//! `Execution` instead — same spec, same schedule construction, same
//! outcome shape (and trivially oracle-identical, because it *is* the
//! oracle).

use crate::spec::{BatchSchedule, InstanceSpec};
use ftcolor_model::encode::{ConfigCodec, SLOTS_PER_PROC};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::sweep;
use ftcolor_model::{
    Algorithm, Execution, ExecutionReport, ModelError, ProcessId, Schedule, Time, Topology,
};
use parking_lot::Mutex;
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// How one instance ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every process returned an output.
    Returned,
    /// The schedule ended; the processes still working crashed. The
    /// survivors' outputs stand (this is the wait-free guarantee).
    Crashed,
    /// Fuel ran out with processes still working — the batch rendering
    /// of [`ModelError::NonTermination`].
    Stalled,
}

/// Slab status byte. `InFlight` (parked: the packed row holds interned
/// slots) and `Fresh` (not yet visited: the packed row holds the
/// identifiers) are engine-internal; the other values mirror
/// [`Termination`]. A round visits every fresh slot, so none is left
/// fresh after it.
const ST_IN_FLIGHT: u8 = 0;
const ST_RETURNED: u8 = 1;
const ST_CRASHED: u8 = 2;
const ST_STALLED: u8 = 3;
const ST_FRESH: u8 = 4;

impl Termination {
    fn as_status(self) -> u8 {
        match self {
            Termination::Returned => ST_RETURNED,
            Termination::Crashed => ST_CRASHED,
            Termination::Stalled => ST_STALLED,
        }
    }
}

/// Everything known about one finished instance, delivered to the
/// completion sink from whichever worker retired it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome<O> {
    /// Admission index of the instance within its engine.
    pub index: usize,
    /// How the instance ended.
    pub termination: Termination,
    /// Output of each process (`None` = crashed before returning).
    pub outputs: Vec<Option<O>>,
    /// Activation count of each process.
    pub activations: Vec<u64>,
    /// Time steps executed.
    pub time_steps: Time,
    /// Processes crashed by the schedule ending (empty unless
    /// [`Termination::Crashed`]).
    pub crashed: Vec<ProcessId>,
    /// Sweep round at which the instance was admitted.
    pub admitted_round: u64,
    /// Sweep round at which it finished; `completed_round -
    /// admitted_round` is the completion latency in rounds.
    pub completed_round: u64,
    /// Per-step resolved activation sets (only when trace recording is
    /// on — the crash-composition property test reads these).
    pub trace: Option<Vec<ActivationSet>>,
}

impl<O: Clone> BatchOutcome<O> {
    /// This outcome as the sequential executor's report type (what
    /// `Execution::run` returns on its `Ok` path) — the object the
    /// differential suite compares bit-for-bit.
    pub fn report(&self) -> ExecutionReport<O> {
        ExecutionReport {
            outputs: self.outputs.clone(),
            activations: self.activations.clone(),
            time_steps: self.time_steps,
            crashed: self.crashed.clone(),
        }
    }
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads per sweep (`0` = one per CPU).
    pub jobs: usize,
    /// Schedule iterations per instance per round (`≥ 1`). Latency is
    /// measured in rounds, so the quantum is the latency resolution.
    pub quantum: u32,
    /// Record per-step activation traces into every outcome (tests
    /// only — costs an allocation per step).
    pub record_traces: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs: 1,
            quantum: 8,
            record_traces: false,
        }
    }
}

/// Per-instance control block: the live schedule plus everything that
/// does not pack into flat `u32` slabs. Locked only by the (single)
/// worker visiting the instance this round.
struct Ctrl {
    /// Admission index of the instance in this slot.
    index: usize,
    /// Sweep round at which it was admitted.
    admitted_round: u64,
    sched: BatchSchedule,
    fuel: u64,
    trace: Option<Vec<ActivationSet>>,
}

/// A homogeneous batch of `C_n` instances of one algorithm. See the
/// module docs for the execution model.
pub struct BatchEngine<'a, A: Algorithm<Input = u64>>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    alg: &'a A,
    topo: Topology,
    codec: ConfigCodec<A>,
    n: usize,
    cfg: BatchConfig,
    round: u64,
    /// Instances admitted so far; the next admission index.
    admitted: usize,
    /// Packed configuration slab: `3n` words per slot — interned slots
    /// when parked, the identifiers when fresh.
    packed: Vec<AtomicU32>,
    /// Activation-counter slab: `n` counters per slot.
    activ: Vec<AtomicU32>,
    /// Time steps executed, per slot.
    time: Vec<AtomicU64>,
    /// `ST_*` status byte, per slot.
    status: Vec<AtomicU8>,
    /// Control blocks, per slot.
    ctrl: Vec<Mutex<Ctrl>>,
    /// Slots still in flight (pruned after every round).
    runnable: Vec<u32>,
    /// Slots whose instance retired, reused by the next admissions.
    free: Vec<u32>,
    /// Most (states, registers, outputs) interned at once, as of the
    /// last compaction.
    peak_interned: (usize, usize, usize),
}

impl<'a, A> BatchEngine<'a, A>
where
    A: Algorithm<Input = u64> + Sync,
    A::State: Eq + Hash + Clone + Send + Sync,
    A::Reg: Eq + Hash + Clone + Send + Sync,
    A::Output: Eq + Hash + Clone + Send + Sync,
{
    /// An empty engine for `C_n` instances.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (no such cycle).
    pub fn new(alg: &'a A, n: usize, cfg: BatchConfig) -> Self {
        let topo = Topology::cycle(n).expect("batch engine needs a ring of size >= 3");
        BatchEngine {
            alg,
            topo,
            codec: ConfigCodec::new(n),
            n,
            cfg: BatchConfig {
                jobs: sweep::resolve_jobs(cfg.jobs),
                quantum: cfg.quantum.max(1),
                record_traces: cfg.record_traces,
            },
            round: 0,
            admitted: 0,
            packed: Vec::new(),
            activ: Vec::new(),
            time: Vec::new(),
            status: Vec::new(),
            ctrl: Vec::new(),
            runnable: Vec::new(),
            free: Vec::new(),
            peak_interned: (0, 0, 0),
        }
    }

    /// Ring size of every instance in this engine.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sweep rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Instances currently in flight.
    pub fn in_flight(&self) -> usize {
        self.runnable.len()
    }

    /// Instances admitted over the engine's lifetime.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Slab slots allocated: never more than the most instances ever in
    /// flight at once, since a retired instance's slot is reused.
    pub fn slots(&self) -> usize {
        self.ctrl.len()
    }

    /// Most distinct (states, registers, outputs) held interned at once,
    /// per component — the sharing the packed representation lives
    /// off. Every round drops the values no parked instance uses, so
    /// this follows the peak in flight, not the admissions.
    pub fn interned_counts(&self) -> (usize, usize, usize) {
        let (s, r, o) = self.codec.interned_counts();
        let (ps, pr, po) = self.peak_interned;
        (ps.max(s), pr.max(r), po.max(o))
    }

    /// Heap bytes of the interners (see
    /// [`ConfigCodec::approx_interner_bytes`]).
    pub fn approx_interner_bytes(&self) -> usize {
        self.codec.approx_interner_bytes()
    }

    /// Admits one instance, returning its admission index, in the slot
    /// of a retired instance if there is one. The slot is left fresh:
    /// its packed row holds the identifiers, and the first visit builds
    /// the initial configuration from them exactly as `Execution::new`
    /// does ([`Execution::reinit`]). Admission interns nothing.
    ///
    /// # Panics
    ///
    /// Panics if the spec's ring size differs from the engine's.
    pub fn admit(&mut self, spec: &InstanceSpec) -> usize {
        assert_eq!(spec.n(), self.n, "spec ring size != engine ring size");
        let index = self.admitted;
        self.admitted += 1;
        let ctrl = Ctrl {
            index,
            admitted_round: self.round,
            sched: spec.schedule(),
            fuel: spec.fuel,
            trace: self.cfg.record_traces.then(Vec::new),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                *self.ctrl[slot as usize].get_mut() = ctrl;
                slot
            }
            None => {
                let slot = u32::try_from(self.ctrl.len()).expect("fewer than 2^32 slots");
                self.ctrl.push(Mutex::new(ctrl));
                let slots = self.ctrl.len();
                self.packed
                    .resize_with(slots * self.n * SLOTS_PER_PROC, AtomicU32::default);
                self.activ.resize_with(slots * self.n, AtomicU32::default);
                self.time.resize_with(slots, AtomicU64::default);
                self.status.resize_with(slots, AtomicU8::default);
                slot
            }
        };
        let at = slot as usize;
        *self.time[at].get_mut() = 0;
        *self.status[at].get_mut() = ST_FRESH;
        for a in &mut self.activ[at * self.n..(at + 1) * self.n] {
            *a.get_mut() = 0;
        }
        let base = at * self.n * SLOTS_PER_PROC;
        for (words, &id) in self.packed[base..base + 2 * self.n]
            .chunks_exact_mut(2)
            .zip(&spec.ids)
        {
            *words[0].get_mut() = id as u32;
            *words[1].get_mut() = (id >> 32) as u32;
        }
        self.runnable.push(slot);
        index
    }

    /// One sweep round: every in-flight instance is visited exactly
    /// once (up to `quantum` schedule iterations each) by `jobs`
    /// workers, in two phases: first the instances parked by earlier
    /// rounds, then the ones admitted since. Between the two, the codec
    /// drops every interned value that no parked instance uses
    /// ([`ConfigCodec::compact`]). Finished instances are delivered to
    /// `sink` from the retiring worker's thread — the sink must
    /// aggregate order-independently (sinks run concurrently, in no
    /// fixed order). Returns the number of instances retired this
    /// round.
    pub fn run_round(&mut self, sink: &(impl Fn(BatchOutcome<A::Output>) + Sync)) -> usize {
        self.round += 1;
        let before = self.runnable.len();
        if before == 0 {
            return 0;
        }
        // The prune keeps the parked slots in order and `admit` appends
        // the fresh ones, so the parked slots lead.
        let status = &self.status;
        let carried = self
            .runnable
            .partition_point(|&slot| status[slot as usize].load(Ordering::Relaxed) == ST_IN_FLIGHT);
        self.sweep(0..carried, sink);
        self.compact(carried);
        self.sweep(carried..before, sink);
        let (status, free) = (&self.status, &mut self.free);
        self.runnable.retain(|&slot| {
            let live = status[slot as usize].load(Ordering::Relaxed) == ST_IN_FLIGHT;
            if !live {
                free.push(slot);
            }
            live
        });
        before - self.runnable.len()
    }

    /// Visits the instances of `runnable[range]`, in chunks `jobs`
    /// workers claim from one shared cursor.
    fn sweep(&self, range: Range<usize>, sink: &(impl Fn(BatchOutcome<A::Output>) + Sync)) {
        if range.is_empty() {
            return;
        }
        let mut workers: Vec<VisitBufs<'_, A>> = (0..self.cfg.jobs.min(range.len()))
            .map(|_| VisitBufs {
                scratch: Execution::new(self.alg, &self.topo, vec![0u64; self.n]),
                row: vec![0u32; self.n * SLOTS_PER_PROC],
                act_row: vec![0u32; self.n],
                active: Vec::with_capacity(self.n),
            })
            .collect();
        let slots = &self.runnable[range];
        sweep::for_each_chunk(slots.len(), CLAIM_CHUNK, &mut workers, |bufs, chunk| {
            for &slot in &slots[chunk] {
                self.visit(slot as usize, self.round, bufs, sink);
            }
        });
    }

    /// Records the interners' sizes toward [`Self::interned_counts`],
    /// then drops every interned value that no instance of
    /// `runnable[..carried]` still parked uses, rewriting those rows.
    /// The fresh rows after them hold identifiers, not interned slots.
    fn compact(&mut self, carried: usize) {
        self.peak_interned = self.interned_counts();
        let width = self.n * SLOTS_PER_PROC;
        let (packed, status) = (&mut self.packed, &self.status);
        let parked = &self.runnable[..carried];
        let mut row = vec![0u32; width];
        self.codec.compact(|visit| {
            for &slot in parked {
                let slot = slot as usize;
                if status[slot].load(Ordering::Relaxed) != ST_IN_FLIGHT {
                    continue;
                }
                let words = &mut packed[slot * width..(slot + 1) * width];
                for (r, w) in row.iter_mut().zip(words.iter_mut()) {
                    *r = *w.get_mut();
                }
                visit(&mut row);
                for (r, w) in row.iter().zip(words) {
                    *w.get_mut() = *r;
                }
            }
        });
    }

    /// Sweeps until the fleet drains or `max_rounds` elapse. Returns
    /// `true` if everything finished.
    pub fn run_to_completion(
        &mut self,
        max_rounds: u64,
        sink: &(impl Fn(BatchOutcome<A::Output>) + Sync),
    ) -> bool {
        while !self.runnable.is_empty() && self.round < max_rounds {
            self.run_round(sink);
        }
        self.runnable.is_empty()
    }

    /// Visits the instance in `slot`: restore its slab row (or, on its
    /// first visit, build its initial configuration from the
    /// identifiers the row holds), run up to `quantum` schedule
    /// iterations of `Execution::run`'s exact loop, park or retire.
    fn visit(
        &self,
        slot: usize,
        round: u64,
        bufs: &mut VisitBufs<'_, A>,
        sink: &impl Fn(BatchOutcome<A::Output>),
    ) {
        let VisitBufs {
            scratch,
            row,
            act_row,
            active,
        } = bufs;
        let slots = self.n * SLOTS_PER_PROC;
        let base = slot * slots;
        let abase = slot * self.n;
        let mut ctrl = self.ctrl[slot].lock();

        for (k, r) in row.iter_mut().enumerate() {
            *r = self.packed[base + k].load(Ordering::Relaxed);
        }
        if self.status[slot].load(Ordering::Relaxed) == ST_FRESH {
            scratch.reinit(
                row.chunks_exact(2)
                    .take(self.n)
                    .map(|w| u64::from(w[0]) | (u64::from(w[1]) << 32)),
            );
        } else {
            self.codec.restore_slice(scratch, row);
        }
        for (k, a) in act_row.iter_mut().enumerate() {
            *a = self.activ[abase + k].load(Ordering::Relaxed);
        }
        let mut time = self.time[slot].load(Ordering::Relaxed);

        // `Execution::run`, quantum iterations at a time: working-set
        // check first, then fuel, then the schedule. The order matters
        // for the fuel-boundary cases and is pinned by the differential
        // suite.
        let mut done: Option<Termination> = None;
        let mut crashed = Vec::new();
        for _ in 0..self.cfg.quantum {
            if scratch.working().is_empty() {
                done = Some(Termination::Returned);
                break;
            }
            if time >= ctrl.fuel {
                done = Some(Termination::Stalled);
                break;
            }
            if !ctrl.sched.next_into(time + 1, scratch.working(), active) {
                crashed = scratch.working().to_vec();
                done = Some(Termination::Crashed);
                break;
            }
            scratch.step_active(active);
            for &p in active.iter() {
                act_row[p.index()] += 1;
            }
            if let Some(trace) = &mut ctrl.trace {
                trace.push(ActivationSet::Only(active.clone()));
            }
            time += 1;
        }

        match done {
            None => {
                // Still in flight: park the row back into the slab.
                self.codec.encode_slice(scratch, row);
                for (k, r) in row.iter().enumerate() {
                    self.packed[base + k].store(*r, Ordering::Relaxed);
                }
                for (k, a) in act_row.iter().enumerate() {
                    self.activ[abase + k].store(*a, Ordering::Relaxed);
                }
                self.time[slot].store(time, Ordering::Relaxed);
                self.status[slot].store(ST_IN_FLIGHT, Ordering::Relaxed);
            }
            Some(term) => {
                self.status[slot].store(term.as_status(), Ordering::Relaxed);
                let outcome = BatchOutcome {
                    index: ctrl.index,
                    termination: term,
                    outputs: scratch.outputs().to_vec(),
                    activations: act_row.iter().map(|&a| u64::from(a)).collect(),
                    time_steps: time,
                    crashed,
                    admitted_round: ctrl.admitted_round,
                    completed_round: round,
                    trace: ctrl.trace.take(),
                };
                drop(ctrl);
                sink(outcome);
            }
        }
    }
}

/// One worker's reusable visit buffers: the scratch execution every
/// slot is swapped through, its packed and activation-counter rows, and
/// the resolved activation set of the current step.
struct VisitBufs<'e, A: Algorithm> {
    scratch: Execution<'e, A>,
    row: Vec<u32>,
    act_row: Vec<u32>,
    active: Vec<ProcessId>,
}

/// Instances a worker claims from the round's shared cursor at a time.
const CLAIM_CHUNK: usize = 64;

/// Runs one instance *materialized* — on a live [`Execution`] instead
/// of through the codec. This is the path for giant rings (a single
/// `n = 10M` instance shares no values, so interning would only cost),
/// and it is oracle-identical by construction: it runs
/// [`Execution::run`]'s loop ([`Execution::run_to_end`]) with
/// [`InstanceSpec::schedule`], then moves the outputs and activation
/// counts out of the finished execution ([`Execution::into_report`])
/// rather than copying them, so a giant ring's peak memory is the live
/// execution alone. `tests/batch_equivalence.rs` pins it against
/// `Execution::run`, traces included.
///
/// `quantum` only scales the reported `completed_round`
/// (`ceil(time_steps / quantum)`), keeping round-latency comparable
/// with batched instances.
///
/// # Panics
///
/// Panics if the spec's ring has fewer than three processes.
pub fn run_materialized<A>(
    alg: &A,
    spec: &InstanceSpec,
    quantum: u32,
    record_trace: bool,
) -> BatchOutcome<A::Output>
where
    A: Algorithm<Input = u64>,
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash + Clone,
{
    let topo = Topology::cycle(spec.n()).expect("materialized instance needs a ring of size >= 3");
    let mut exec = Execution::new(alg, &topo, spec.ids.clone());
    exec.record_trace(record_trace);
    let (termination, crashed) = match exec.run_to_end(spec.schedule(), spec.fuel) {
        Ok(crashed) if crashed.is_empty() => (Termination::Returned, crashed),
        Ok(crashed) => (Termination::Crashed, crashed),
        Err(ModelError::NonTermination { .. }) => (Termination::Stalled, Vec::new()),
        Err(other) => unreachable!("Execution::run only fails with NonTermination: {other}"),
    };
    let (report, recorded) = exec.into_report(crashed);
    let ExecutionReport {
        outputs,
        activations,
        time_steps,
        crashed,
    } = report;
    let quantum = u64::from(quantum.max(1));
    BatchOutcome {
        index: 0,
        termination,
        outputs,
        activations,
        time_steps,
        crashed,
        admitted_round: 0,
        completed_round: time_steps.div_ceil(quantum),
        trace: record_trace.then_some(recorded),
    }
}
