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

use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ftcolor_model::{Algorithm, ProcessId, SubstrateReport};
use ftcolor_net::wire;
use ftcolor_net::{
    draw_fate, Body, Codec, Fate, FaultPlan, Frame, Init, SnapshotResp, WirePool, WireStats,
    ORCHESTRATOR,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::core::{obs_stamp, Obs};
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
    /// Pipe encoding between orchestrator and nodes: line-delimited
    /// JSON (default) or length-prefixed binary frames. The journal
    /// stays JSON either way — traces must read naturally — and the
    /// codec is forwarded to spawned nodes as `node --codec <name>`.
    pub codec: Codec,
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
            codec: Codec::Json,
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

    /// Sets the pipe codec.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
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
    pub final_registers: Vec<Obs>,
    /// The routed-frame journal plus recorded outcome — the
    /// reproducibility artifact for this (non-deterministic) live run.
    pub trace: ClusterTrace,
    /// Router counters.
    pub stats: ClusterStats,
    /// The pipe codec this run used.
    pub codec: Codec,
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
    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// SIGKILLs and reaps the child now (idempotent).
    pub fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// One queued delivery: min-heap by `(due, order)`.
struct Queued {
    due: Instant,
    order: u64,
    frame: Frame,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.order == other.order
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.order.cmp(&self.order))
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
    let codec = opts.codec;
    let tick_ms = opts.tick_ms.max(1);
    let node_cmd = match &opts.node_cmd {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?,
    };

    // Spawn all nodes first; guards reap everything on any exit path.
    // Reader threads ship raw payload bytes (a stripped JSON line, or a
    // length-prefix-stripped binary record); decoding stays on the
    // router thread so `malformed` accounting is single-threaded.
    let mut children: Vec<ChildGuard> = Vec::with_capacity(n);
    let mut stdins = Vec::with_capacity(n);
    let (tx, rx) = mpsc::channel::<(usize, Vec<u8>)>();
    for i in 0..n {
        let mut cmd = Command::new(&node_cmd);
        cmd.arg("node");
        if codec == Codec::Binary {
            cmd.args(["--codec", "binary"]);
        }
        let child = cmd
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
        thread::spawn(move || match codec {
            Codec::Binary => {
                let mut reader = BufReader::new(stdout);
                let mut buf = Vec::new();
                while let Ok(true) = wire::read_framed(&mut reader, &mut buf) {
                    if tx.send((i, std::mem::take(&mut buf))).is_err() {
                        break;
                    }
                }
            }
            Codec::Json => {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((i, line.into_bytes())).is_err() {
                        break;
                    }
                }
            }
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
    let mut heap: BinaryHeap<Queued> = BinaryHeap::new();
    let mut order: u64 = 0;
    let mut killed = vec![false; n];
    let mut decided: Vec<Option<Value>> = vec![None; n];
    let mut decide_round = vec![0u64; n];
    let mut cache: Vec<Obs> = vec![None; n];

    // The crash schedule, in wall-clock terms, soonest first.
    let mut crashes: Vec<(Instant, usize)> = plan
        .crashes
        .iter()
        .filter(|c| c.node < n)
        .map(|c| (start + Duration::from_millis(c.at * tick_ms), c.node))
        .collect();
    crashes.sort_by_key(|&(at, node)| (at, node));
    let mut next_crash = 0usize;

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
        if let Some(bytes) = write_frame(slot, &frame, codec, &mut wpool) {
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
            if frame.dest == ORCHESTRATOR {
                stats.control += 1;
                if let Body::Decide(d) = &frame.body {
                    if decided[frame.src].is_none() {
                        decided[frame.src] = Some(d.output.clone());
                        decide_round[frame.src] = d.round;
                    }
                }
                entries.push(ClusterEntry::Send {
                    seq,
                    ms,
                    fate: SendFate::Control,
                    dup: false,
                    frame,
                });
            } else if frame.dest >= n {
                stats.malformed += 1;
            } else {
                // The router observes every register write on its way
                // out — this cache is what keeps a SIGKILLed node's
                // register readable (substrate memory survives).
                if let Body::Write(w) = &frame.body {
                    let stamp = w.round + 1;
                    if stamp > obs_stamp(&cache[frame.src]) {
                        cache[frame.src] = Some((w.value.clone(), stamp));
                    }
                }
                stats.sent += 1;
                let ticks = ms / tick_ms;
                match draw_fate(plan, &mut rng, ticks, frame.src, frame.dest) {
                    Fate::PartitionDrop => {
                        stats.partition_dropped += 1;
                        entries.push(ClusterEntry::Send {
                            seq,
                            ms,
                            fate: SendFate::Cut,
                            dup: false,
                            frame,
                        });
                    }
                    Fate::Drop => {
                        stats.dropped += 1;
                        entries.push(ClusterEntry::Send {
                            seq,
                            ms,
                            fate: SendFate::Dropped,
                            dup: false,
                            frame,
                        });
                    }
                    Fate::Deliver { delay, dup_extra } => {
                        let due = at + Duration::from_millis(delay * tick_ms);
                        heap.push(Queued {
                            due,
                            order,
                            frame: frame.clone(),
                        });
                        order += 1;
                        if let Some(extra) = dup_extra {
                            stats.duplicated += 1;
                            heap.push(Queued {
                                due: due + Duration::from_millis(extra * tick_ms),
                                order,
                                frame: frame.clone(),
                            });
                            order += 1;
                        }
                        entries.push(ClusterEntry::Send {
                            seq,
                            ms,
                            fate: SendFate::Delivered,
                            dup: dup_extra.is_some(),
                            frame,
                        });
                    }
                }
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
            if killed[dest] {
                // The process is gone but its register is substrate
                // memory: reads still complete, everything else dies
                // with the process.
                if let Body::SnapshotReq(r) = &frame.body {
                    let (value, stamp) = match &cache[dest] {
                        Some((v, s)) => (Some(v.clone()), *s),
                        None => (None, 0),
                    };
                    let round = r.round;
                    stats.served_dead_reads += 1;
                    entries.push(ClusterEntry::Deliver {
                        seq: entries.len() as u64,
                        ms,
                        frame: frame.clone(),
                    });
                    route!(Frame {
                        src: dest,
                        dest: frame.src,
                        body: Body::SnapshotResp(SnapshotResp {
                            round,
                            value,
                            stamp,
                        }),
                    });
                }
            } else if let Some(bytes) = write_frame(&mut stdins[dest], &frame, codec, &mut wpool) {
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
        if (0..n).all(|i| decided[i].is_some() || killed[i]) {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        // Fire everything due: kills first (a kill at t beats a
        // delivery at t — the SIGKILL is the adversary's move).
        while next_crash < crashes.len() && crashes[next_crash].0 <= now {
            let (_, node) = crashes[next_crash];
            next_crash += 1;
            if !killed[node] {
                killed[node] = true;
                children[node].kill_now();
                stdins[node] = None;
                entries.push(ClusterEntry::Crash {
                    seq: entries.len() as u64,
                    ms: ms_now(now),
                    node,
                });
            }
        }
        while heap.peek().is_some_and(|q| q.due <= Instant::now()) {
            let q = heap.pop().expect("peeked");
            deliver!(q.frame);
        }
        // Sleep until the next timer, waking early for node output.
        let mut next = deadline;
        if next_crash < crashes.len() {
            next = next.min(crashes[next_crash].0);
        }
        if let Some(q) = heap.peek() {
            next = next.min(q.due);
        }
        let wait = next.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((i, payload)) => {
                let decoded = match codec {
                    Codec::Binary => wire::decode_frame(&payload).ok(),
                    Codec::Json => match std::str::from_utf8(&payload) {
                        Ok(text) => {
                            let trimmed = text.trim();
                            if trimmed.is_empty() {
                                continue;
                            }
                            Frame::decode(trimmed).ok()
                        }
                        Err(_) => None,
                    },
                };
                match decoded {
                    // A node only speaks for itself; anything else is
                    // treated as a torn line/record.
                    Some(frame) if frame.src == i => {
                        wstats.frames_decoded += 1;
                        // +4/+1 for the stream framing the reader
                        // thread stripped (length prefix / newline).
                        let framing = if codec == Codec::Binary { 4 } else { 1 };
                        wstats.bytes_on_wire += (payload.len() + framing) as u64;
                        route!(frame);
                    }
                    _ => stats.malformed += 1,
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every node exited. Drain what the timers still owe
                // (cache-served reads), then stop.
                if heap.is_empty() {
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

    let crashed: Vec<ProcessId> = (0..n)
        .filter(|&i| killed[i] && decided[i].is_none())
        .map(ProcessId)
        .collect();
    let stalled: Vec<ProcessId> = (0..n)
        .filter(|&i| !killed[i] && decided[i].is_none())
        .map(ProcessId)
        .collect();
    let outputs: Vec<Option<A::Output>> = decided
        .iter()
        .map(|slot| match slot {
            None => Ok(None),
            Some(v) => serde_json::from_value::<A::Output>(v.clone())
                .map(Some)
                .map_err(|e| format!("cluster: decoding a recorded output: {e}")),
        })
        .collect::<Result<_, String>>()?;

    let trace = ClusterTrace {
        schema: CLUSTER_TRACE_SCHEMA.to_string(),
        alg: alg_name.to_string(),
        n,
        seed,
        ids: ids.to_vec(),
        tick_ms,
        plan: plan.clone(),
        entries,
        outputs: decided
            .into_iter()
            .map(|slot| slot.unwrap_or(Value::Null))
            .collect(),
        crashed: crashed.iter().map(|p| p.index()).collect(),
        stalled: stalled.iter().map(|p| p.index()).collect(),
    };

    wstats.pool_hits = wpool.hits();
    wstats.pool_misses = wpool.misses();
    Ok(ClusterReport {
        outputs,
        rounds: decide_round,
        crashed,
        stalled,
        timed_out,
        wall_ms,
        child_pids,
        final_registers: cache,
        trace,
        stats,
        codec,
        wire: wstats,
    })
}

/// Writes one frame to a node's stdin in the run's codec (a JSON line,
/// or a length-prefixed binary record), built in a pooled buffer and
/// flushed in a single `write_all`. Returns the bytes written. On any
/// pipe error the slot is closed (the node died on its own) and `None`
/// comes back — the frame is treated as undeliverable, never journaled.
fn write_frame(
    slot: &mut Option<std::process::ChildStdin>,
    frame: &Frame,
    codec: Codec,
    pool: &mut WirePool,
) -> Option<usize> {
    let stdin = slot.as_mut()?;
    let mut buf = pool.acquire();
    match codec {
        Codec::Binary => wire::append_framed(frame, &mut buf),
        Codec::Json => {
            frame.encode_into(&mut buf);
            buf.push(b'\n');
        }
    }
    let ok = stdin.write_all(&buf).is_ok() && stdin.flush().is_ok();
    let bytes = buf.len();
    pool.release(buf);
    if !ok {
        *slot = None;
        return None;
    }
    Some(bytes)
}
