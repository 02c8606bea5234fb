//! The cluster orchestrator: spawns one OS process per ring node,
//! routes frames between them, injects faults, journals everything.
//!
//! The orchestrator is the *substrate* of the real-process cluster —
//! the nodes are the algorithm. It plays three roles at once:
//!
//! * **Router.** Every frame a node emits on stdout passes through
//!   here. Node-to-node frames are run through the shared fault-plan
//!   interpreter ([`ftcolor_net::draw_fate`], the same one the
//!   discrete-event simulator consumes) with wall-clock milliseconds
//!   mapped to plan ticks via `tick_ms`; surviving copies are queued
//!   and later written to the destination's stdin. Control frames
//!   (`init_ok`, `decide`) are consumed directly and never faulted.
//! * **Crash adversary.** Fault-plan crashes become real `SIGKILL`s
//!   ([`std::process::Child::kill`] on Unix), timed at
//!   `at * tick_ms` milliseconds into the run. The paper's registers
//!   survive crashes, so the router keeps a cache of each node's last
//!   observed register write and answers `snapshot_req`s aimed at dead
//!   nodes from it — substrate memory outliving the process, exactly
//!   like the simulator's register servers.
//! * **Recorder.** Every routed frame, fate, and kill is journaled in
//!   router order into a [`ClusterTrace`]; live runs race on wall
//!   clocks and are *not* reproducible from the seed alone, so the
//!   journal is the reproducibility artifact — `crate::replay_trace`
//!   re-verifies it deterministically with no processes spawned.
//!
//! Child processes are held in kill-on-drop guards ([`ChildGuard`]):
//! whether the run completes, times out, or the orchestrator panics,
//! every child is SIGKILLed and reaped — no zombies, no orphans.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ftcolor_model::{Algorithm, ProcessId, SubstrateReport};
use ftcolor_net::{
    draw_fate, Body, Fate, FaultPlan, Frame, Init, Slot, WirePool, WireStats, ORCHESTRATOR,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::pipe::{decode_line, read_lines, write_lines};
use crate::trace::{ClusterEntry, ClusterTrace, SendFate, CLUSTER_TRACE_SCHEMA};

/// Orchestrator knobs (everything except the fault plan).
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Node retransmit timeout in milliseconds (forwarded via `init`).
    pub rto_ms: u64,
    /// Node pause before each round in milliseconds (forwarded via
    /// `init`); nonzero values stretch the run so plan crashes land
    /// mid-protocol instead of after everyone already decided.
    pub pace_ms: u64,
    /// Wall milliseconds per fault-plan logical tick (delays, partition
    /// windows, and crash times are all expressed in plan ticks).
    pub tick_ms: u64,
    /// Hard wall-clock cap; at the cap the run stops and still-working
    /// nodes are reported as stalled (the orchestrator times out, it
    /// never hangs).
    pub max_wall_ms: u64,
    /// The node binary to spawn (invoked as `<cmd> node`). Defaults to
    /// the currently running executable.
    pub node_cmd: Option<std::path::PathBuf>,
    /// Test hook: spawn this node but never send its `init`, wedging it
    /// silent forever — exercises the timeout/stall reporting path.
    pub withhold_init: Option<usize>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            rto_ms: 25,
            pace_ms: 0,
            tick_ms: 5,
            max_wall_ms: 30_000,
            node_cmd: None,
            withhold_init: None,
        }
    }
}

impl ClusterOptions {
    /// Sets the node pace (ms per round).
    #[must_use]
    pub fn pace_ms(mut self, ms: u64) -> Self {
        self.pace_ms = ms;
        self
    }

    /// Sets the wall-clock cap.
    #[must_use]
    pub fn max_wall_ms(mut self, ms: u64) -> Self {
        self.max_wall_ms = ms;
        self
    }

    /// Sets the tick-to-millisecond mapping.
    #[must_use]
    pub fn tick_ms(mut self, ms: u64) -> Self {
        self.tick_ms = ms.max(1);
        self
    }

    /// Sets the node binary.
    #[must_use]
    pub fn node_cmd(mut self, cmd: std::path::PathBuf) -> Self {
        self.node_cmd = Some(cmd);
        self
    }

    /// Sets the withheld-`init` test hook.
    #[must_use]
    pub fn withhold_init(mut self, node: usize) -> Self {
        self.withhold_init = Some(node);
        self
    }
}

/// Router counters for one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Node-to-node frames surfaced at the router.
    pub sent: u64,
    /// Frames written to a live node's stdin (includes duplicates).
    pub delivered: u64,
    /// Frames lost to the per-link drop probability.
    pub dropped: u64,
    /// Frames lost to active partition windows.
    pub partition_dropped: u64,
    /// Extra duplicate copies queued.
    pub duplicated: u64,
    /// `snapshot_req`s answered from a dead node's register cache.
    pub served_dead_reads: u64,
    /// Control frames (`init_ok`, `decide`) consumed.
    pub control: u64,
    /// Torn or garbage stdout lines discarded.
    pub malformed: u64,
}

/// The result of one real-process cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport<O> {
    /// Output of each node (`None` = crashed or stalled first).
    pub outputs: Vec<Option<O>>,
    /// The round each node decided in (0 for nodes without a decision).
    pub rounds: Vec<u64>,
    /// Nodes SIGKILLed before deciding.
    pub crashed: Vec<ProcessId>,
    /// Live nodes that never decided before the run stopped.
    pub stalled: Vec<ProcessId>,
    /// Whether the wall-clock cap fired.
    pub timed_out: bool,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// OS pids of the spawned node processes (all reaped by the time
    /// the report exists — exposed so tests can verify exactly that).
    pub child_pids: Vec<u32>,
    /// The router's register cache at the end of the run: each node's
    /// last observed register write (what dead-node reads serve from).
    pub final_registers: Vec<Slot<Value>>,
    /// The routed-frame journal plus recorded outcome — the
    /// reproducibility artifact for this (non-deterministic) live run.
    pub trace: ClusterTrace,
    /// Router counters.
    pub stats: ClusterStats,
    /// Frame/byte/pool counters for the orchestrator's side of the
    /// pipes (encodes to node stdin, decodes from node stdout).
    pub wire: WireStats,
}

impl<O> SubstrateReport<O> for ClusterReport<O> {
    fn outputs(&self) -> &[Option<O>] {
        &self.outputs
    }

    fn crashed_ids(&self) -> &[ProcessId] {
        &self.crashed
    }
    // `all_correct_returned` keeps the default: a stalled node is not
    // crashed, so it fails the wait-freedom premise — timeouts and
    // wedges surface as oracle failures, not silence.
}

/// A spawned node process that is SIGKILLed and reaped when dropped —
/// including when the orchestrator panics mid-run. This is the
/// no-orphan guarantee: a `ChildGuard` never leaks a child past its
/// own lifetime.
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    /// Wraps a spawned child.
    pub fn new(child: Child) -> Self {
        ChildGuard { child }
    }

    /// The child's OS pid.
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// Mutable access to the wrapped child (to take pipes).
    fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// SIGKILLs and reaps the child now (idempotent).
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// What the router remembers of each node, kept the same way by the
/// live orchestrator and by the replayer, which rebuilds it from the
/// journal: the register its surfaced writes left (what dead-node reads
/// are served from), its first `decide`, and whether the plan killed it.
pub(crate) struct RouterMemory {
    pub(crate) registers: Vec<Slot<Value>>,
    pub(crate) killed: Vec<bool>,
    decided: Vec<Option<Value>>,
    pub(crate) rounds: Vec<u64>,
}

impl RouterMemory {
    pub(crate) fn new(n: usize) -> Self {
        RouterMemory {
            registers: vec![Slot::default(); n],
            killed: vec![false; n],
            decided: vec![None; n],
            rounds: vec![0; n],
        }
    }

    /// Notes a journaled frame: a `write` refreshes its sender's register
    /// (a `Value` slot keeps any payload, so this cannot fail), and a
    /// node's first `decide` is its outcome.
    pub(crate) fn surfaced(&mut self, frame: &Frame) {
        match &frame.body {
            Body::Write(w) => {
                drop(self.registers[frame.src].apply(frame.src, w.round, w.value.clone()));
            }
            Body::Decide(d) if self.decided[frame.src].is_none() => {
                self.decided[frame.src] = Some(d.output.clone());
                self.rounds[frame.src] = d.round;
            }
            _ => {}
        }
    }

    /// The answer a dead node's surviving register owes `frame`, if it
    /// is a `snapshot_req`.
    pub(crate) fn dead_read(&self, frame: &Frame) -> Option<Frame> {
        let Body::SnapshotReq(r) = &frame.body else {
            return None;
        };
        let resp = self.registers[frame.dest].answer(r.round);
        Some(Frame {
            src: frame.dest,
            dest: frame.src,
            body: resp.to_body(),
        })
    }

    /// The outcome: each node's output (`null` without a `decide`), the
    /// nodes killed before deciding, and the ones that did neither.
    pub(crate) fn outcome(&self) -> (Vec<Value>, Vec<usize>, Vec<usize>) {
        let n = self.killed.len();
        let undecided = |killed: bool| {
            (0..n)
                .filter(|&i| self.killed[i] == killed && self.decided[i].is_none())
                .collect()
        };
        let outputs = self
            .decided
            .iter()
            .map(|o| o.clone().unwrap_or(Value::Null));
        (outputs.collect(), undecided(true), undecided(false))
    }

    pub(crate) fn outputs<O: Deserialize>(&self) -> Result<Vec<Option<O>>, serde::Error> {
        let decode = |o: &Option<Value>| o.as_ref().map(O::from_value).transpose();
        self.decided.iter().map(decode).collect()
    }
}

/// Runs `alg_name` on a ring of `ids.len()` real node processes under
/// `plan`, drawing fault decisions from `seed`. The `_alg` value is
/// only the type witness for decoding outputs — the orchestrator
/// itself is protocol-agnostic and never steps the algorithm.
///
/// # Errors
///
/// Returns a message when the ring is too small, a node fails to
/// spawn, or a recorded output fails to decode as `A::Output`.
pub fn run_cluster<A>(
    _alg: &A,
    alg_name: &str,
    ids: &[u64],
    plan: &FaultPlan,
    seed: u64,
    opts: &ClusterOptions,
) -> Result<ClusterReport<A::Output>, String>
where
    A: Algorithm<Input = u64>,
    A::Output: Deserialize,
{
    let n = ids.len();
    if n < 3 {
        return Err(format!("cluster: a cycle needs n >= 3 nodes, got {n}"));
    }
    let tick_ms = opts.tick_ms.max(1);
    let node_cmd = match &opts.node_cmd {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?,
    };

    // Spawn all nodes first; guards reap everything on any exit path.
    // Reader threads ship raw lines (newline stripped); decoding stays
    // on the router thread so `malformed` accounting is single-threaded.
    let mut children: Vec<ChildGuard> = Vec::with_capacity(n);
    let mut stdins = Vec::with_capacity(n);
    let (tx, rx) = mpsc::channel::<(usize, Vec<u8>)>();
    for i in 0..n {
        let child = Command::new(&node_cmd)
            .arg("node")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cluster: spawning node {i} ({}): {e}", node_cmd.display()))?;
        let mut guard = ChildGuard::new(child);
        let stdin = guard.child_mut().stdin.take().expect("stdin was piped");
        let stdout = guard.child_mut().stdout.take().expect("stdout was piped");
        stdins.push(Some(stdin));
        children.push(guard);
        let tx = tx.clone();
        thread::spawn(move || {
            read_lines(BufReader::new(stdout), |line| tx.send((i, line)).is_ok());
        });
    }
    drop(tx); // readers hold the only senders: Disconnected == all exited
    let child_pids: Vec<u32> = children.iter().map(ChildGuard::id).collect();

    let start = Instant::now();
    let deadline = start + Duration::from_millis(opts.max_wall_ms);
    let ms_now = |at: Instant| -> u64 {
        u64::try_from(at.saturating_duration_since(start).as_millis()).unwrap_or(u64::MAX)
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries: Vec<ClusterEntry> = Vec::new();
    let mut stats = ClusterStats::default();
    let mut wpool = WirePool::default();
    let mut wstats = WireStats::default();
    // Queued deliveries, soonest first (ties in queueing order).
    let mut queue: BTreeMap<(Instant, u64), Frame> = BTreeMap::new();
    let mut order: u64 = 0;
    let mut router = RouterMemory::new(n);

    // The crash schedule, in wall-clock terms, soonest last: it is
    // popped off the end.
    let mut crashes: Vec<(Instant, usize)> = plan
        .crashes
        .iter()
        .filter(|c| c.node < n)
        .map(|c| (start + Duration::from_millis(c.at * tick_ms), c.node))
        .collect();
    crashes.sort_by(|a, b| b.cmp(a));

    // Hand every node its identity — except a withheld one. Ring
    // neighbors are listed in `Topology::cycle` order (ascending), so
    // cluster views line up positionally with the other substrates.
    for (i, slot) in stdins.iter_mut().enumerate() {
        if opts.withhold_init == Some(i) {
            continue;
        }
        let mut neighbors = vec![(i + n - 1) % n, (i + 1) % n];
        neighbors.sort_unstable();
        let frame = Frame {
            src: ORCHESTRATOR,
            dest: i,
            body: Body::Init(Init {
                node: i,
                n,
                alg: alg_name.to_string(),
                input: ids[i],
                neighbors,
                rto_ms: opts.rto_ms,
                pace_ms: opts.pace_ms,
            }),
        };
        let ms = ms_now(Instant::now());
        if let Some(bytes) = write_frame(slot, &frame, &mut wpool) {
            wstats.frames_encoded += 1;
            wstats.bytes_on_wire += bytes as u64;
            entries.push(ClusterEntry::Deliver {
                seq: entries.len() as u64,
                ms,
                frame,
            });
        }
    }

    // Journals one surfaced frame, draws its fate, queues deliveries.
    // Shared by node-emitted frames and synthesized dead-node responses.
    macro_rules! route {
        ($frame:expr) => {{
            let frame: Frame = $frame;
            let at = Instant::now();
            let ms = ms_now(at);
            let seq = entries.len() as u64;
            if frame.dest >= n && frame.dest != ORCHESTRATOR {
                stats.malformed += 1;
            } else {
                // The router observes every register write on its way
                // out — this is what keeps a SIGKILLed node's register
                // readable (substrate memory survives).
                router.surfaced(&frame);
                let ticks = ms / tick_ms;
                let (fate, dup) = if frame.dest == ORCHESTRATOR {
                    stats.control += 1;
                    (SendFate::Control, false)
                } else {
                    stats.sent += 1;
                    match draw_fate(plan, &mut rng, ticks, frame.src, frame.dest) {
                        Fate::PartitionDrop => {
                            stats.partition_dropped += 1;
                            (SendFate::Cut, false)
                        }
                        Fate::Drop => {
                            stats.dropped += 1;
                            (SendFate::Dropped, false)
                        }
                        Fate::Deliver { delay, dup_extra } => {
                            let due = at + Duration::from_millis(delay * tick_ms);
                            let dup_due =
                                dup_extra.map(|extra| due + Duration::from_millis(extra * tick_ms));
                            stats.duplicated += u64::from(dup_due.is_some());
                            for due in std::iter::once(due).chain(dup_due) {
                                queue.insert((due, order), frame.clone());
                                order += 1;
                            }
                            (SendFate::Delivered, dup_due.is_some())
                        }
                    }
                };
                entries.push(ClusterEntry::Send {
                    seq,
                    ms,
                    fate,
                    dup,
                    frame,
                });
            }
        }};
    }

    // Writes one due frame to its destination (or serves it from the
    // register cache when the destination is dead).
    macro_rules! deliver {
        ($frame:expr) => {{
            let frame: Frame = $frame;
            let ms = ms_now(Instant::now());
            let dest = frame.dest;
            if router.killed[dest] {
                // The process is gone but its register is substrate
                // memory: reads still complete, everything else dies
                // with the process.
                if let Some(resp) = router.dead_read(&frame) {
                    stats.served_dead_reads += 1;
                    entries.push(ClusterEntry::Deliver {
                        seq: entries.len() as u64,
                        ms,
                        frame,
                    });
                    route!(resp);
                }
            } else if let Some(bytes) = write_frame(&mut stdins[dest], &frame, &mut wpool) {
                stats.delivered += 1;
                wstats.frames_encoded += 1;
                wstats.bytes_on_wire += bytes as u64;
                entries.push(ClusterEntry::Deliver {
                    seq: entries.len() as u64,
                    ms,
                    frame,
                });
            }
        }};
    }

    let mut timed_out = false;
    loop {
        if (0..n).all(|i| router.decided[i].is_some() || router.killed[i]) {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        // Fire everything due: kills first (a kill at t beats a
        // delivery at t — the SIGKILL is the adversary's move).
        while let Some((_, node)) = crashes.pop_if(|&mut (at, _)| at <= now) {
            if !router.killed[node] {
                router.killed[node] = true;
                children[node].kill_now();
                stdins[node] = None;
                entries.push(ClusterEntry::Crash {
                    seq: entries.len() as u64,
                    ms: ms_now(now),
                    node,
                });
            }
        }
        while let Some(due) = queue.first_entry().filter(|q| q.key().0 <= Instant::now()) {
            deliver!(due.remove());
        }
        // Sleep until the next timer, waking early for node output.
        let mut next = deadline;
        if let Some(&(at, _)) = crashes.last() {
            next = next.min(at);
        }
        if let Some(&(due, _)) = queue.keys().next() {
            next = next.min(due);
        }
        let wait = next.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((i, line)) => {
                match decode_line(&line) {
                    Ok(None) => {}
                    // A node only speaks for itself; anything else is
                    // treated as a torn line.
                    Ok(Some(frame)) if frame.src == i => {
                        wstats.frames_decoded += 1;
                        // +1 for the newline the reader thread stripped.
                        wstats.bytes_on_wire += line.len() as u64 + 1;
                        route!(frame);
                    }
                    _ => stats.malformed += 1,
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every node exited. Drain what the timers still owe
                // (cache-served reads), then stop.
                if queue.is_empty() {
                    break;
                }
            }
        }
    }
    let wall_ms = ms_now(Instant::now());

    // Shutdown: close pipes (EOF is the node's exit signal), then
    // SIGKILL + reap every child regardless.
    drop(stdins);
    for child in &mut children {
        child.kill_now();
    }
    drop(children);

    let (recorded, crashed, stalled) = router.outcome();
    let outputs = router
        .outputs()
        .map_err(|e| format!("cluster: decoding a recorded output: {e}"))?;
    let ids_of = |v: &[usize]| v.iter().copied().map(ProcessId).collect();

    let trace = ClusterTrace {
        schema: CLUSTER_TRACE_SCHEMA.to_string(),
        alg: alg_name.to_string(),
        n,
        seed,
        ids: ids.to_vec(),
        tick_ms,
        plan: plan.clone(),
        entries,
        outputs: recorded,
        crashed,
        stalled,
    };

    wstats.pool_hits = wpool.hits();
    wstats.pool_misses = wpool.misses();
    Ok(ClusterReport {
        outputs,
        crashed: ids_of(&trace.crashed),
        stalled: ids_of(&trace.stalled),
        timed_out,
        wall_ms,
        child_pids,
        rounds: router.rounds,
        final_registers: router.registers,
        trace,
        stats,
        wire: wstats,
    })
}

/// Writes one frame to a node's stdin as a JSON line. Returns the
/// bytes written. On any pipe error the slot is closed (the node died on
/// its own) and `None` comes back — the frame is treated as
/// undeliverable, never journaled.
fn write_frame(
    slot: &mut Option<std::process::ChildStdin>,
    frame: &Frame,
    pool: &mut WirePool,
) -> Option<usize> {
    let written = write_lines(std::slice::from_ref(frame), pool, slot.as_mut()?);
    if written.is_err() {
        *slot = None;
    }
    written.ok()
}
