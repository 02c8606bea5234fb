//! Exhaustive schedule exploration for small instances.
//!
//! The paper's theorems quantify over *all* schedules — every interleaving
//! of activation sets and every crash pattern. For small instances this
//! universal quantification is checkable exactly: the executor is
//! deterministic given an activation set, so the execution space is the
//! graph whose nodes are reachable *configurations* (private states +
//! registers + outputs of all processes) and whose edges are the
//! `2^|working| − 1` possible non-empty activation sets.
//!
//! [`ModelChecker::explore`] performs a BFS over this graph and checks:
//!
//! * a **safety predicate** at every reachable configuration. Because a
//!   crash is just the absence of future activations, the partial outputs
//!   at *any* reachable configuration are exactly the final outputs of
//!   some crash-terminated execution — so checking every configuration
//!   covers every crash pattern with no extra machinery;
//! * **termination**: a cycle in the configuration graph is a schedule
//!   that activates working processes forever without any of them
//!   returning — a wait-freedom violation. Cycles are detected by
//!   depth-first search and returned as a replayable
//!   [`LivelockWitness`] (reach the cycle, then loop its activation sets
//!   forever).
//!
//! # One engine, any worker count
//!
//! There is a single exploration engine: a **level-synchronized BFS**
//! whose outcome is a pure function of the instance. `jobs = 1` (the
//! default) is the sequential case; any other worker count produces the
//! bit-identical outcome — same [`SafetyViolation`], same
//! [`LivelockWitness`], same `outputs_seen` order, same
//! `exact_worst_case` — so a counterexample or a bound computed at
//! `--jobs 8` is exactly the one a single worker would print. Each BFS
//! level is a contiguous range of node ids, processed in chunks of
//! [`EXPAND_CHUNK`] ids in ascending order; each chunk runs in two
//! phases:
//!
//! 1. **Expand (parallel).** Workers claim sub-chunks of the chunk
//!    from one shared cursor ([`sweep::for_each_chunk`]).
//!    Each worker reads outputs and the working set straight off a
//!    node's packed row in the node arena and computes the safety
//!    predicate, the terminal check, and one successor per activation
//!    subset — stepped on the packed row itself, with the entry lane
//!    the worker fills once per node, into a per-worker scratch row by
//!    the codec's memoized successor kernel ([`ConfigCodec::step_into`],
//!    see [`ftcolor_model::encode`]), with no [`Execution`] involved —
//!    and looks each successor up in the
//!    arena's index. A successor already there is recorded by id; only
//!    a new one is copied out of the scratch row. The arena is *frozen*
//!    during this phase, so reads race with nothing, and no successor
//!    allocates.
//! 2. **Merge (sequential, canonical order).** Results are folded in
//!    ascending node-id order: first-seen output collection,
//!    lowest-id-wins safety violation (the lexicographically smallest
//!    counterexample — BFS parent chains order witnesses by (length,
//!    discovery order)), terminal counting, the configuration-cap check,
//!    new-id assignment in (parent, subset) order, and the
//!    dedup-statistics counters. Duplicates discovered concurrently
//!    within one chunk are resolved here, deterministically, never by
//!    race outcome: a successor that an earlier chunk already merged
//!    resolves to the id the merge's own arena lookup would find.
//!
//! Whether a chunk expands at all is decided anew before each chunk, so
//! once the configuration cap is reached at most one chunk's successors
//! are computed and then dropped. A node that starts expanding below
//! the cap still adds all of its successors, so a truncated run may
//! hold more than `cap` configurations, by less than the largest
//! branching (`2^|working| − 1`).
//!
//! Cycle detection and the worst-case DP then run on the resulting edge
//! list. `tests/parallel_equivalence.rs` checks the engine at several
//! worker counts against an independent clone-per-successor reference
//! BFS over [`Execution`].
//!
//! # Compact storage
//!
//! One node arena is both the node store and the visited set: every
//! configuration's packed interned row ([`ftcolor_model::encode`]) sits
//! back to back in one flat `Vec<u32>`, indexed by node id, next to its
//! slot-XOR hash and an open-addressing `u32` index over the ids. Row
//! equality is compared in full, so deduplication is exact. Transitions
//! are stored in compressed sparse rows — one offset per node plus one
//! flat edge list — and **packed**: `(target, subset bitmask, frame
//! automorphism)` in 12 bytes, decoded against the source node's
//! working set only when a witness needs materializing. Parent links are
//! 12 bytes too, so a configuration of an `n`-process instance costs
//! `12n + 8` bytes of row and hash, two to four 4-byte index slots, its
//! parent link and its out-edges — no per-node heap allocation at all.
//! [`ExploreStats::peak_visited_bytes`] adds up the capacities of
//! exactly these buffers plus the interners, and
//! [`ExploreStats::visited_split`] reports each part.
//!
//! # Reductions
//!
//! With [`ModelChecker::with_symmetry`] the checker canonicalizes every
//! configuration under the cycle's automorphism group before
//! deduplication, exploring one representative per orbit — see
//! [`crate::symmetry`] for the soundness contract and the witness
//! de-canonicalization that keeps every surfaced schedule concretely
//! replayable on the original instance. Orbit representatives are
//! elected by run-independent value hashes, so reduced runs are
//! worker-count independent too.
//!
//! With [`ModelChecker::with_por`] the checker applies certified
//! **partial-order reduction** (see [`crate::por`]): activation subsets
//! that merely interleave commuting, non-adjacent activations are
//! skipped, guarded — like symmetry — by a per-algorithm certificate
//! ([`ftcolor_model::Algorithm::por_certificate`]) that is additionally
//! cross-examined by a dynamic commutation probe before exploration
//! starts. The reduced family is a pure function of the source
//! configuration, enumerated in the same ascending-mask order as the
//! full family; it depends on the working set alone, so each worker
//! memoizes it per working set. POR composes with symmetry: reduction
//! happens on the canonical representative's working set, and since
//! every reduced edge is a real edge, witness de-canonicalization is
//! unchanged.
//!
//! Experiment E6 runs this on `C3`/`C4` for Algorithms 1–3 (finding the
//! crash-livelock of Algorithms 2/3 automatically, and verifying
//! Algorithm 1 clean); E7 runs it on the MIS candidates.

use crate::por::{self, PorContext};
use crate::stats::{ExploreStats, VisitedBytes};
use crate::symmetry::{CycleSymmetry, SIGMA_ID};
use ftcolor_model::encode::{ConfigCodec, LanedRow, SLOTS_PER_PROC};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::sweep;
use ftcolor_model::{Algorithm, Execution, ProcessId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;
use std::ops::Range;
use std::time::Instant;

/// A safety violation found at a reachable configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyViolation {
    /// Human-readable description produced by the safety predicate.
    pub description: String,
    /// A schedule (from the initial configuration) reaching the violating
    /// configuration; crash everyone there to realize the violation.
    pub schedule: Vec<ActivationSet>,
}

/// A wait-freedom violation: a reachable cycle in the configuration
/// graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivelockWitness {
    /// Activation sets leading from the initial configuration to the
    /// cycle entry.
    pub prefix: Vec<ActivationSet>,
    /// Activation sets around the cycle (repeat forever to starve every
    /// process activated in them).
    pub cycle: Vec<ActivationSet>,
}

/// Result of an exhaustive exploration.
///
/// Implements `PartialEq` so differential harnesses can assert that two
/// explorations (e.g. at different worker counts) produced *identical*
/// results, field for field. The [`stats`](Self::stats) field carries
/// wall-clock-dependent performance counters and is deliberately
/// **excluded** from equality.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome<O> {
    /// Number of distinct reachable configurations.
    pub configs: usize,
    /// Number of explored transitions.
    pub edges: usize,
    /// Number of configurations in which every process has returned.
    pub fully_terminated_configs: usize,
    /// First safety violation found, if any.
    pub safety_violation: Option<SafetyViolation>,
    /// A livelock witness, if the configuration graph has a cycle.
    pub livelock: Option<LivelockWitness>,
    /// Every distinct output value observed across all configurations,
    /// in first-seen BFS order (deterministic: exploration order is a
    /// pure function of the instance, never of hashing or thread count).
    pub outputs_seen: Vec<O>,
    /// Whether exploration was truncated by the configuration cap (all
    /// reported facts still hold for the explored subgraph).
    pub truncated: bool,
    /// Performance counters for this exploration (configs/sec, memory,
    /// dedup hit-rate). Not part of equality: wall-clock varies.
    pub stats: ExploreStats,
}

impl<O: PartialEq> PartialEq for ModelCheckOutcome<O> {
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs
            && self.edges == other.edges
            && self.fully_terminated_configs == other.fully_terminated_configs
            && self.safety_violation == other.safety_violation
            && self.livelock == other.livelock
            && self.outputs_seen == other.outputs_seen
            && self.truncated == other.truncated
    }
}

impl<O> ModelCheckOutcome<O> {
    /// `true` when no safety violation and no livelock were found and
    /// exploration was complete.
    pub fn clean(&self) -> bool {
        self.safety_violation.is_none() && self.livelock.is_none() && !self.truncated
    }
}

impl<O: fmt::Debug> fmt::Display for ModelCheckOutcome<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configs={} edges={} terminal={} safety={} livelock={} truncated={}",
            self.configs,
            self.edges,
            self.fully_terminated_configs,
            self.safety_violation.as_ref().map_or("ok", |_| "VIOLATED"),
            self.livelock.as_ref().map_or("none", |_| "FOUND"),
            self.truncated
        )
    }
}

/// Exhaustive model checker for an algorithm on a small topology.
///
/// ```
/// use ftcolor_checker::ModelChecker;
/// use ftcolor_core::SixColoring;
/// use ftcolor_model::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::cycle(3)?;
/// let safety = |topo: &Topology, outs: &[Option<_>]| {
///     topo.first_conflict(outs).map(|(a, b)| format!("conflict {a}-{b}"))
/// };
/// let outcome = ModelChecker::new(&SixColoring, &topo, vec![10, 20, 30]).explore(safety)?;
/// assert!(outcome.clean(), "{outcome}");
/// let four = ModelChecker::new(&SixColoring, &topo, vec![10, 20, 30])
///     .with_jobs(4)
///     .explore(safety)?;
/// assert_eq!(outcome, four); // bit-identical, whatever the worker count
/// # Ok(())
/// # }
/// ```
pub struct ModelChecker<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    max_configs: usize,
    jobs: usize,
    symmetry: bool,
    por: bool,
}

/// Exploration failed structurally (e.g. the instance is too large).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCheckError {
    /// The per-process input list has the wrong length.
    InputLengthMismatch,
    /// Symmetry reduction was requested on a topology whose automorphism
    /// group the checker cannot certify (only single cycles qualify).
    SymmetryUnsupported,
    /// Symmetry reduction was requested for an algorithm that does not
    /// certify [`Algorithm::relabel_view`], so the checker cannot apply
    /// graph automorphisms to its states soundly.
    ///
    /// [`Algorithm::relabel_view`]: ftcolor_model::Algorithm::relabel_view
    SymmetryUncertifiedAlgorithm,
    /// Partial-order reduction was requested for an algorithm whose
    /// [`Algorithm::por_certificate`] returns
    /// [`ftcolor_model::PorCert::Uncertified`] — the checker refuses to
    /// skip interleavings without an independence promise to verify.
    ///
    /// [`Algorithm::por_certificate`]: ftcolor_model::Algorithm::por_certificate
    PorUncertifiedAlgorithm,
    /// The algorithm *claims* a POR certificate, but the dynamic
    /// commutation/termination probe refuted it on this instance; the
    /// payload describes the first observed contradiction. No reduced
    /// exploration is attempted.
    PorCertificateViolation(String),
}

impl fmt::Display for ModelCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelCheckError::InputLengthMismatch => write!(f, "one input per node required"),
            ModelCheckError::SymmetryUnsupported => {
                write!(f, "symmetry reduction requires a cycle topology")
            }
            ModelCheckError::SymmetryUncertifiedAlgorithm => {
                write!(
                    f,
                    "symmetry reduction requires the algorithm to certify relabel_view"
                )
            }
            ModelCheckError::PorUncertifiedAlgorithm => {
                write!(
                    f,
                    "partial-order reduction requires the algorithm to certify por_certificate"
                )
            }
            ModelCheckError::PorCertificateViolation(why) => {
                write!(f, "POR certificate refuted by the dynamic probe: {why}")
            }
        }
    }
}

impl std::error::Error for ModelCheckError {}

/// Every non-empty subset of `working`, as activation sets — the full
/// branching of the adversary at one configuration, in ascending
/// bitmask order (bit `i` activates `working[i]`), the order every
/// exploration mode branches in.
///
/// # Panics
///
/// Panics if `working` has 24 or more entries (the instance is far too
/// large for exhaustive exploration anyway).
pub fn all_nonempty_subsets(working: &[ftcolor_model::ProcessId]) -> Vec<ActivationSet> {
    let k = working.len();
    assert!(k < MAX_WORKING, "subset enumeration needs a small instance");
    (1..(1u32 << k))
        .map(|mask| decode_mask(mask, working))
        .collect()
}

/// Exclusive bound on the working-set size subset enumeration accepts.
const MAX_WORKING: usize = 24;

/// Expands a packed subset bitmask back into an activation set against
/// the source configuration's (ascending) working list.
fn decode_mask(mask: u32, working: &[ProcessId]) -> ActivationSet {
    ActivationSet::of(
        (0..working.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| working[i]),
    )
}

/// One transition of the configuration graph, packed: target node, the
/// bitmask of the activation subset taken (over the **source** node's
/// ascending working list — decode with [`decode_mask`]), and the
/// automorphism that canonicalized the raw successor (`SIGMA_ID`
/// outside symmetry mode). 12 bytes, `Copy`: at millions of
/// configurations the edge list stays RAM-resident where heap
/// activation sets would not.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    mask: u32,
    sig: u16,
}

/// The configuration graph's transitions in compressed sparse rows:
/// node `u`'s out-edges are `edges[first[u]..first[u + 1]]`. Nodes merge
/// in ascending id order, so each node's edges are appended
/// contiguously.
struct Csr {
    first: Vec<u32>,
    edges: Vec<Edge>,
}

impl Csr {
    /// Number of nodes.
    fn nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// The out-edges of node `u`.
    fn out(&self, u: usize) -> &[Edge] {
        &self.edges[self.first[u] as usize..self.first[u + 1] as usize]
    }

    /// Closes the row of the next node: its edges start here.
    fn start_node(&mut self) {
        self.first
            .push(u32::try_from(self.edges.len()).expect("edge counts fit in u32"));
    }

    /// Heap bytes held, by capacity.
    fn bytes(&self) -> u64 {
        (self.first.capacity() * std::mem::size_of::<u32>()
            + self.edges.capacity() * std::mem::size_of::<Edge>()) as u64
    }
}

/// BFS parent link of a non-root node: parent id, activation-subset
/// bitmask (in the parent's frame), canonicalizing automorphism of the
/// edge. The root (id 0) has a placeholder no walk reads.
#[derive(Debug, Clone, Copy)]
struct ParentLink {
    node: u32,
    mask: u32,
    sig: u16,
}

/// Walks the BFS parent chain from node `id` back to the root, returning
/// the activation-set schedule that reaches `id` from the initial
/// configuration; `working_of` resolves a node id to its configuration's
/// working list (restoring the packed node) so each stored mask can be
/// decoded in its parent's frame. Only valid outside symmetry mode
/// (automorphism frames are ignored); symmetry-mode callers use
/// [`frame_schedule`].
fn schedule_to(
    parents: &[ParentLink],
    mut id: usize,
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> Vec<ActivationSet> {
    let mut sched = Vec::new();
    while id != 0 {
        let link = parents[id];
        id = link.node as usize;
        sched.push(decode_mask(link.mask, &working_of(id)));
    }
    sched.reverse();
    sched
}

/// Symmetry-mode replacement for [`schedule_to`]: walks the parent chain
/// and **de-canonicalizes** it, mapping each canonical-frame activation
/// set through the cumulative frame automorphism back to the original
/// instance's process labels. Returns the concrete schedule and the
/// frame permutation `τ` at `id` (concrete process = `τ[canonical]`).
fn frame_schedule(
    parents: &[ParentLink],
    mut id: usize,
    sym: &CycleSymmetry,
    root_sig: u16,
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> (Vec<ActivationSet>, u16) {
    let mut chain: Vec<(ActivationSet, u16)> = Vec::new();
    while id != 0 {
        let link = parents[id];
        id = link.node as usize;
        chain.push((decode_mask(link.mask, &working_of(id)), link.sig));
    }
    chain.reverse();

    // Concrete root = inv(root_sig) · canonical root.
    let mut tau = sym.invert(root_sig);
    let mut sched = Vec::with_capacity(chain.len());
    for (set, sig) in chain {
        sched.push(sym.apply_to_set(tau, &set));
        tau = sym.compose(tau, sym.invert(sig));
    }
    (sched, tau)
}

/// Materializes a concrete [`SafetyViolation`] from a quotient-graph
/// detection: outside symmetry mode the parent chain *is* the concrete
/// schedule; in symmetry mode the chain is de-canonicalized and then
/// replayed on the original instance to regenerate the description in
/// concrete process labels (falling back to the canonical-frame
/// description if the predicate — against the contract — is not
/// symmetry-invariant).
#[allow(clippy::too_many_arguments)]
fn concrete_safety_witness<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    inputs: &[A::Input],
    parents: &[ParentLink],
    id: usize,
    canonical_desc: String,
    sym: Option<&CycleSymmetry>,
    root_sig: u16,
    safety: &impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> SafetyViolation
where
    A::Input: Clone,
{
    match sym {
        None => SafetyViolation {
            description: canonical_desc,
            schedule: schedule_to(parents, id, working_of),
        },
        Some(s) => {
            let (schedule, _) = frame_schedule(parents, id, s, root_sig, working_of);
            let mut exec = Execution::new(alg, topo, inputs.to_vec());
            for set in &schedule {
                exec.step_with(set);
            }
            SafetyViolation {
                description: safety(topo, exec.outputs()).unwrap_or(canonical_desc),
                schedule,
            }
        }
    }
}

/// Materializes a concrete [`LivelockWitness`] from a quotient-graph
/// cycle. In symmetry mode the quotient cycle closes only up to an
/// automorphism `ρ` (the composition of the inverted edge
/// canonicalizers), so the concrete cycle is the quotient cycle
/// **unrolled `order(ρ)` times** with the frame permutation advanced
/// per edge — after which the concrete configuration genuinely repeats.
fn concrete_livelock_witness(
    parents: &[ParentLink],
    entry: usize,
    cycle: &[(ActivationSet, u16)],
    sym: Option<&CycleSymmetry>,
    root_sig: u16,
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> LivelockWitness {
    match sym {
        None => LivelockWitness {
            prefix: schedule_to(parents, entry, working_of),
            cycle: cycle.iter().map(|(set, _)| set.clone()).collect(),
        },
        Some(s) => {
            let (prefix, mut tau) = frame_schedule(parents, entry, s, root_sig, working_of);
            let rho = cycle
                .iter()
                .fold(SIGMA_ID, |acc, (_, sig)| s.compose(acc, s.invert(*sig)));
            let passes = s.order(rho);
            let mut sets = Vec::with_capacity(passes * cycle.len());
            for _ in 0..passes {
                for (set, sig) in cycle {
                    sets.push(s.apply_to_set(tau, set));
                    tau = s.compose(tau, s.invert(*sig));
                }
            }
            LivelockWitness {
                prefix,
                cycle: sets,
            }
        }
    }
}

/// A livelock lasso: the cycle's entry node plus, per edge around the
/// loop, the `(source node, subset bitmask, edge automorphism)` triple.
type Lasso = (usize, Vec<(usize, u32, u16)>);

/// Finds a cycle in the configuration graph via iterative DFS with
/// tri-color marking; returns the cycle entry node and, per edge around
/// the cycle, the `(source node, subset bitmask, edge automorphism)`
/// triple — decode each mask against its source node's working list
/// ([`decode_mask`]) to materialize the activation sets.
///
/// Invariant used for witness extraction: after taking edge index `ei`
/// out of node `u`, the stack entry stores `ei + 1`, so the edge from
/// `stack[w]` toward `stack[w+1]` (or the closing back edge, for the top
/// entry) is always `graph.out(node)[stored_ei − 1]`.
fn find_cycle(graph: &Csr) -> Option<Lasso> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = graph.nodes();
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        while let Some(&(u, ei)) = stack.last() {
            if ei >= graph.out(u).len() {
                color[u] = Color::Black;
                stack.pop();
                continue;
            }
            stack.last_mut().expect("nonempty").1 = ei + 1;
            let v = graph.out(u)[ei].to as usize;
            match color[v] {
                Color::White => {
                    color[v] = Color::Gray;
                    stack.push((v, 0));
                }
                Color::Gray => {
                    // Back edge u → v closes the cycle v … u → v.
                    let pos = stack
                        .iter()
                        .position(|&(w, _)| w == v)
                        .expect("gray node is on the stack");
                    let cycle = stack[pos..]
                        .iter()
                        .map(|&(node, next_ei)| {
                            let e = &graph.out(node)[next_ei - 1];
                            (node, e.mask, e.sig)
                        })
                        .collect();
                    return Some((v, cycle));
                }
                Color::Black => {}
            }
        }
    }
    None
}

/// Decodes a raw [`find_cycle`] result into `(activation set, edge
/// automorphism)` pairs via each edge's source node.
fn decode_cycle(
    cycle: &[(usize, u32, u16)],
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> Vec<(ActivationSet, u16)> {
    cycle
        .iter()
        .map(|&(src, mask, sig)| (decode_mask(mask, &working_of(src)), sig))
        .collect()
}

/// Exact worst-case per-process activation count over all paths of an
/// **acyclic** configuration graph with `n` processes: topological order
/// via Kahn's algorithm, then a per-process max-activation DP. Returns
/// `None` when the graph has a cycle (unbounded worst case).
///
/// In symmetry mode each edge relabels the per-process counters through
/// its canonicalizing automorphism, so every DP entry is the count
/// vector of a *concrete* path and the maximum over the quotient equals
/// the maximum over the full graph.
fn worst_case_from_graph(
    graph: &Csr,
    n: usize,
    sym: Option<&CycleSymmetry>,
    working_of: &mut impl FnMut(usize) -> Vec<ProcessId>,
) -> Option<u64> {
    let m = graph.nodes();
    let mut indeg = vec![0usize; m];
    for e in &graph.edges {
        indeg[e.to as usize] += 1;
    }
    let mut order = Vec::with_capacity(m);
    let mut q: VecDeque<usize> = (0..m).filter(|&v| indeg[v] == 0).collect();
    while let Some(u) = q.pop_front() {
        order.push(u);
        for e in graph.out(u) {
            indeg[e.to as usize] -= 1;
            if indeg[e.to as usize] == 0 {
                q.push_back(e.to as usize);
            }
        }
    }
    if order.len() != m {
        return None; // cyclic
    }

    let mut best: Vec<Vec<u64>> = vec![vec![0; n]; m];
    let mut answer = 0u64;
    for &u in &order {
        answer = answer.max(best[u].iter().copied().max().unwrap_or(0));
        let from = best[u].clone();
        let working = working_of(u);
        for e in graph.out(u) {
            for (i, &acts) in from.iter().enumerate() {
                // Mask bit j activates working[j]; process i is activated
                // iff it sits at such a position in the working list.
                let inc = u64::from(
                    working
                        .iter()
                        .position(|p| p.index() == i)
                        .is_some_and(|j| e.mask & (1 << j) != 0),
                );
                // Successor-frame index of source-frame process i.
                let j = match sym {
                    Some(s) => s.perm(e.sig)[i] as usize,
                    None => i,
                };
                best[e.to as usize][j] = best[e.to as usize][j].max(acts + inc);
            }
        }
    }
    Some(answer)
}

/// Frontier node ids expanded per chunk. Each chunk's expansion is
/// merged before the next one starts, so a capped run computes at most
/// one chunk's successors past the cap; the outcome does not depend on
/// this value.
pub const EXPAND_CHUNK: usize = 512;

/// An empty slot of [`NodeArena`]'s index.
const VACANT: u32 = u32::MAX;

/// Every configuration of one exploration, stored flat: node `id`'s
/// packed row is `rows[id·w..(id+1)·w]` and its slot-XOR hash
/// `hashes[id]`. An open-addressing index of node ids (linear probing,
/// at most half full) makes the arena the visited set as well.
struct NodeArena {
    width: usize,
    rows: Vec<u32>,
    hashes: Vec<u64>,
    index: Vec<u32>,
}

impl NodeArena {
    fn new(width: usize) -> Self {
        NodeArena {
            width,
            rows: Vec::new(),
            hashes: Vec::new(),
            index: vec![VACANT; 1024],
        }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The packed row of node `id`.
    fn row(&self, id: usize) -> &[u32] {
        &self.rows[id * self.width..(id + 1) * self.width]
    }

    /// The id of the node packed as `row` (whose hash is `hash`), or the
    /// vacant index slot where it would go.
    fn probe(&self, row: &[u32], hash: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.index[slot];
            if id == VACANT {
                return Err(slot);
            }
            if self.hashes[id as usize] == hash && self.row(id as usize) == row {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of the node packed as `row`, if present.
    fn get(&self, row: &[u32], hash: u64) -> Option<u32> {
        self.probe(row, hash).ok()
    }

    /// The id of the node packed as `row`, appending it as the next node
    /// when absent; the flag is `true` when it was appended.
    fn insert(&mut self, row: &[u32], hash: u64) -> (u32, bool) {
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
        }
        match self.probe(row, hash) {
            Ok(id) => (id, false),
            Err(slot) => {
                let id = node_id32(self.len());
                self.index[slot] = id;
                self.rows.extend_from_slice(row);
                self.hashes.push(hash);
                (id, true)
            }
        }
    }

    /// Doubles the index, re-placing every id by its stored hash.
    fn grow(&mut self) {
        let mask = 2 * self.index.len() - 1;
        let mut index = vec![VACANT; mask + 1];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while index[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            index[slot] = node_id32(id);
        }
        self.index = index;
    }

    /// Heap bytes held, by capacity: the packed rows, then the hashes
    /// and the index.
    fn bytes(&self) -> (u64, u64) {
        let rows = self.rows.capacity() * std::mem::size_of::<u32>();
        let lookup = self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.index.capacity() * std::mem::size_of::<u32>();
        (rows as u64, lookup as u64)
    }
}

/// Where one successor lands: a node the arena already held when the
/// chunk began, or the `n`-th row of the expanding worker's fresh
/// buffer, for the merge to resolve against same-chunk duplicates.
#[derive(Clone, Copy)]
enum Target {
    Known(u32),
    Fresh(u32),
}

/// One successor computed during the expand phase: the activation-subset
/// bitmask taken (over the source configuration's ascending working
/// list), the canonicalizing automorphism, and the target.
struct Child {
    mask: u32,
    sig: u16,
    target: Target,
}

/// Everything the merge phase needs about one expanded node.
struct Expanded {
    /// The node's id.
    node: u32,
    /// Safety-predicate result at this configuration.
    violation: Option<String>,
    /// Every process has returned: no successors.
    terminal: bool,
    /// Activation subsets POR pruned at this node (`0` outside `--por`).
    /// Credited by the merge phase only when the node actually expands,
    /// so capped nodes don't count.
    pruned: u64,
    /// The node's successors in the worker's `children`, in
    /// activation-subset (mask) order; empty when terminal or when the
    /// chunk did not expand (cap already reached).
    children: Range<u32>,
}

/// One worker's expansion buffers. They are cleared, not freed, between
/// chunks, so once they have grown the expand phase allocates nothing.
struct Worker<O> {
    expanded: Vec<Expanded>,
    children: Vec<Child>,
    /// Rows of successors the arena did not hold, back to back.
    fresh_rows: Vec<u32>,
    fresh_hashes: Vec<u64>,
    /// The node being expanded with its entry lane, the stepped
    /// successor, and the successor's canonical image.
    parent: LanedRow,
    step: LanedRow,
    canon: Vec<u32>,
    /// This worker's copy of the POR context, whose mask memo it fills.
    por: Option<PorContext>,
    /// Every nonempty subset mask of the largest working set met so
    /// far, ascending: the unreduced family of any working set is a
    /// prefix of it.
    every: Vec<u32>,
    /// Scratch for the node's outputs (the safety predicate's input) and
    /// working list.
    outputs: Vec<Option<O>>,
    working: Vec<ProcessId>,
}

impl<O> Worker<O> {
    /// Buffers for `n` processes; `relabel` makes the lanes carry view
    /// swaps (symmetry reduction).
    fn new(n: usize, relabel: bool, por: Option<PorContext>) -> Self {
        Worker {
            expanded: Vec::new(),
            children: Vec::new(),
            fresh_rows: Vec::new(),
            fresh_hashes: Vec::new(),
            parent: LanedRow::new(n, relabel),
            step: LanedRow::new(n, relabel),
            canon: vec![0; n * SLOTS_PER_PROC],
            por,
            every: Vec::new(),
            outputs: Vec::new(),
            working: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.expanded.clear();
        self.children.clear();
        self.fresh_rows.clear();
        self.fresh_hashes.clear();
    }
}

/// What every worker reads while expanding one chunk; the arena is
/// frozen until the chunk's merge.
struct Expander<'c, A: Algorithm, S> {
    alg: &'c A,
    topo: &'c Topology,
    codec: &'c ConfigCodec<A>,
    sym: Option<&'c CycleSymmetry>,
    safety: &'c S,
    arena: &'c NodeArena,
    /// Whether nodes of this chunk branch at all (the cap not yet
    /// reached when the chunk began).
    expand: bool,
}

impl<A, S> Expander<'_, A, S>
where
    A: Algorithm,
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
    S: Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
{
    /// Expands node `id` into `w`'s buffers.
    fn expand(&self, w: &mut Worker<A::Output>, id: usize) {
        let Worker {
            expanded,
            children,
            fresh_rows,
            fresh_hashes,
            parent,
            step,
            canon,
            por,
            every,
            outputs,
            working,
        } = w;
        let row = self.arena.row(id);
        self.codec.outputs_into(row, outputs);
        // The predicate is pure, so evaluating it at configurations
        // after the first violation changes nothing observable.
        let violation = (self.safety)(self.topo, outputs);
        working.clear();
        working.extend(
            outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .map(|(i, _)| ProcessId(i)),
        );
        let terminal = working.is_empty();
        let first = children.len();
        let mut pruned = 0u64;
        if !terminal && self.expand {
            let k = working.len();
            assert!(k < MAX_WORKING, "subset enumeration needs a small instance");
            self.codec
                .entries_into(self.alg, row, self.arena.hashes[id], parent);
            let full = (1u32 << k) - 1;
            let masks: &[u32] = match por {
                Some(p) => p.masks(working),
                None => {
                    if every.len() < full as usize {
                        every.extend(every.len() as u32 + 1..=full);
                    }
                    &every[..full as usize]
                }
            };
            let mut active = [ProcessId(0); MAX_WORKING];
            for &mask in masks {
                let mut len = 0;
                for (i, &p) in working.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        active[len] = p;
                        len += 1;
                    }
                }
                self.codec
                    .step_into(self.alg, self.topo, parent, &active[..len], step);
                let (succ, h, sig) = match self.sym.and_then(|s| s.canonicalize_into(step, canon)) {
                    Some((h, sig)) => (&canon[..], h, sig),
                    None => (step.row(), step.hash(), SIGMA_ID),
                };
                let target = match self.arena.get(succ, h) {
                    Some(to) => Target::Known(to),
                    None => {
                        let n = node_id32(fresh_hashes.len());
                        fresh_rows.extend_from_slice(succ);
                        fresh_hashes.push(h);
                        Target::Fresh(n)
                    }
                };
                children.push(Child { mask, sig, target });
            }
            pruned = u64::from(full) - masks.len() as u64;
        }
        expanded.push(Expanded {
            node: node_id32(id),
            violation,
            terminal,
            pruned,
            children: node_id32(first)..node_id32(children.len()),
        });
    }
}

/// Fully merged exploration result; shared by `explore` and
/// `exact_worst_case`.
struct GraphResult<O> {
    /// Every node's packed row, indexed by id — the decode arena for
    /// witness reconstruction (edges store subset bitmasks, which only
    /// mean something against the source node's working list).
    arena: NodeArena,
    graph: Csr,
    parents: Vec<ParentLink>,
    fully_terminated: usize,
    truncated: bool,
    /// Lowest-id violating configuration and its description.
    first_violation: Option<(usize, String)>,
    outputs_seen: Vec<O>,
    stats: ExploreStats,
    sym: Option<CycleSymmetry>,
    root_sig: u16,
}

impl<'a, A: Algorithm + Sync> ModelChecker<'a, A>
where
    A::State: Eq + Hash + Send + Sync,
    A::Reg: Eq + Hash + Send + Sync,
    A::Output: Eq + Hash + Send + Sync,
    A::Input: Clone + Sync,
{
    /// Creates a checker with the default configuration cap (2,000,000)
    /// and one worker.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>) -> Self {
        ModelChecker {
            alg,
            topo,
            inputs,
            max_configs: 2_000_000,
            jobs: 1,
            symmetry: false,
            por: false,
        }
    }

    /// Overrides the configuration cap; exploration beyond it returns a
    /// truncated (but still sound for the explored part) outcome.
    ///
    /// The cap is checked before each node expands, and a node that
    /// expands adds all of its successors, so a truncated run may
    /// overshoot: `configs − cap` stays below the largest branching,
    /// `2^|working| − 1` (31 on a five-process ring).
    pub fn with_max_configs(mut self, cap: usize) -> Self {
        self.max_configs = cap.max(1);
        self
    }

    /// Sets the worker count; `0` means one worker per available CPU.
    /// The outcome is identical for every value — only wall-clock
    /// changes.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = sweep::resolve_jobs(jobs);
        self
    }

    /// The worker count this checker will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Enables **symmetry reduction**: configurations are canonicalized
    /// under the cycle's automorphism group and one representative per
    /// orbit is explored. Verdicts (safety / livelock / truncation) are
    /// provably identical to full exploration; `configs`/`edges` counts
    /// shrink by up to `2n` and all witnesses are de-canonicalized to
    /// concrete schedules. Two soundness guards apply: exploration fails
    /// with [`ModelCheckError::SymmetryUnsupported`] unless the topology
    /// is a single cycle, and with
    /// [`ModelCheckError::SymmetryUncertifiedAlgorithm`] unless the
    /// algorithm certifies `Algorithm::relabel_view` (the group action
    /// must reindex view-position-indexed state data when an
    /// automorphism flips the order a process sees its neighbors in).
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Enables certified **partial-order reduction** (see [`crate::por`]
    /// for the construction and soundness proofs): only connected
    /// activation subsets are branched on — and, for algorithms
    /// certifying solo termination, only subsets of the canonical
    /// working component. Safety, livelock, and truncation verdicts are
    /// preserved, every witness remains a concretely replayable
    /// schedule, and the reduction composes with
    /// [`Self::with_symmetry`].
    ///
    /// Two guards apply before any reduced exploration: the algorithm
    /// must certify [`ftcolor_model::Algorithm::por_certificate`]
    /// (otherwise [`ModelCheckError::PorUncertifiedAlgorithm`]) and the
    /// certificate must survive a dynamic commutation/termination probe
    /// on the actual instance (otherwise
    /// [`ModelCheckError::PorCertificateViolation`]).
    ///
    /// [`Self::exact_worst_case`] deliberately ignores this flag: the
    /// staircase defers activations in ways that preserve verdicts but
    /// not the per-path activation-count maximum.
    pub fn with_por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Explores the reachable configuration graph, checking `safety` at
    /// every configuration (return `Some(description)` to flag a
    /// violation) and searching for livelock cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology,
    /// [`ModelCheckError::SymmetryUnsupported`] /
    /// [`ModelCheckError::SymmetryUncertifiedAlgorithm`] when symmetry
    /// reduction is enabled on a non-cycle topology or an uncertified
    /// algorithm, and [`ModelCheckError::PorUncertifiedAlgorithm`] /
    /// [`ModelCheckError::PorCertificateViolation`] when POR is enabled
    /// without a (dynamically validated) certificate.
    pub fn explore(
        &self,
        safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync,
    ) -> Result<ModelCheckOutcome<A::Output>, ModelCheckError> {
        let g = self.explore_graph(&safety, true, self.por)?;
        let mut working_of = |id: usize| ConfigCodec::<A>::working(g.arena.row(id));
        let safety_violation = g.first_violation.as_ref().map(|(id, desc)| {
            concrete_safety_witness(
                self.alg,
                self.topo,
                &self.inputs,
                &g.parents,
                *id,
                desc.clone(),
                g.sym.as_ref(),
                g.root_sig,
                &safety,
                &mut working_of,
            )
        });
        let livelock = find_cycle(&g.graph).map(|(entry, raw)| {
            let cycle = decode_cycle(&raw, &mut working_of);
            concrete_livelock_witness(
                &g.parents,
                entry,
                &cycle,
                g.sym.as_ref(),
                g.root_sig,
                &mut working_of,
            )
        });
        Ok(ModelCheckOutcome {
            configs: g.arena.len(),
            edges: g.graph.edges.len(),
            fully_terminated_configs: g.fully_terminated,
            safety_violation,
            livelock,
            outputs_seen: g.outputs_seen,
            truncated: g.truncated,
            stats: g.stats,
        })
    }

    /// Computes the **exact worst-case round complexity** over *all*
    /// schedules: the maximum, over every execution path in the
    /// configuration graph, of the largest per-process activation count.
    ///
    /// Requires the configuration graph to be acyclic (i.e. the
    /// algorithm wait-free on this instance — e.g. Algorithm 1, as
    /// certified by [`ModelChecker::explore`]); with a cycle the worst
    /// case is unbounded and `None` is returned. Exploration is capped
    /// like `explore`; a truncated exploration also returns `None`.
    ///
    /// This turns the paper's *bounds* (`⌊3n/2⌋ + 4` for Algorithm 1)
    /// into exact constants for small instances — experiment E6 reports
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case(&self) -> Result<Option<u64>, ModelCheckError> {
        Ok(self.exact_worst_case_with_stats()?.0)
    }

    /// [`Self::exact_worst_case`] plus the exploration's performance
    /// counters — in particular, callers can report *how much* work a
    /// truncated (`Ok((None, _))`) exploration did instead of silently
    /// discarding it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case_with_stats(
        &self,
    ) -> Result<(Option<u64>, ExploreStats), ModelCheckError> {
        // POR is deliberately not applied here (see `with_por`): the DP
        // needs every path's activation counts, which the staircase does
        // not preserve.
        let g = self.explore_graph(&|_: &Topology, _: &[Option<A::Output>]| None, false, false)?;
        if g.truncated {
            return Ok((None, g.stats)); // truncated: cannot certify
        }
        let mut working_of = |id: usize| ConfigCodec::<A>::working(g.arena.row(id));
        let w = worst_case_from_graph(&g.graph, self.topo.len(), g.sym.as_ref(), &mut working_of);
        Ok((w, g.stats))
    }

    /// Level-synchronized BFS, chunk by chunk: parallel expand,
    /// canonical sequential merge. See the module docs for why the
    /// outcome is independent of the worker count.
    fn explore_graph(
        &self,
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
        track_outputs: bool,
        use_por: bool,
    ) -> Result<GraphResult<A::Output>, ModelCheckError> {
        let t0 = Instant::now();
        let template = Execution::try_new(self.alg, self.topo, self.inputs.clone())
            .map_err(|_| ModelCheckError::InputLengthMismatch)?;
        let sym = if self.symmetry {
            let group = CycleSymmetry::for_topology(self.topo)
                .ok_or(ModelCheckError::SymmetryUnsupported)?;
            // The hook's return value is state-independent by contract, so
            // probing one (discarded) state clone certifies the algorithm.
            let mut probe = template.state(ProcessId(0)).clone();
            if !self.alg.relabel_view(&mut probe, &[1, 0]) {
                return Err(ModelCheckError::SymmetryUncertifiedAlgorithm);
            }
            Some(group)
        } else {
            None
        };
        let por = if use_por {
            Some(por_gate(self.alg, self.topo, &self.inputs)?)
        } else {
            None
        };
        let codec: ConfigCodec<A> = ConfigCodec::new(self.topo.len());
        let root = codec.encode(&template);
        let (root, root_sig) = match &sym {
            Some(s) => s.canonicalize(&codec, self.alg, true, &root),
            None => (root, SIGMA_ID),
        };
        let width = root.packed.len();
        let mut arena = NodeArena::new(width);
        arena.insert(&root.packed, root.hash);

        let mut graph = Csr {
            first: Vec::new(),
            edges: Vec::new(),
        };
        let mut parents = vec![ParentLink {
            node: 0,
            mask: 0,
            sig: SIGMA_ID,
        }];
        let (mut fully_terminated, mut truncated) = (0usize, false);
        let mut first_violation: Option<(usize, String)> = None;
        let mut outputs_seen = Vec::new();
        // First-seen flags by output intern index.
        let mut seen: Vec<bool> = Vec::new();
        let (mut dedup_hits, mut dedup_lookups, mut por_pruned) = (0u64, 0u64, 0u64);
        let n = self.topo.len();
        let mut workers: Vec<Worker<A::Output>> = (0..self.jobs)
            .map(|_| Worker::new(n, sym.is_some(), por.clone()))
            .collect();
        // (worker, index into its `expanded`) of each node of a chunk.
        let mut placed: Vec<(usize, usize)> = Vec::new();

        let mut level = 0..1;
        while !level.is_empty() {
            let mut lo = level.start;
            while lo < level.end {
                let chunk = lo..(lo + EXPAND_CHUNK).min(level.end);
                lo = chunk.end;
                let expander = Expander {
                    alg: self.alg,
                    topo: self.topo,
                    codec: &codec,
                    sym: sym.as_ref(),
                    safety,
                    arena: &arena,
                    // Once the cap has been reached, no node of this or
                    // any later chunk may expand (each is flagged as
                    // truncated) — skip the successor work entirely.
                    expand: arena.len() < self.max_configs,
                };
                self.expand_chunk(&expander, chunk.clone(), &mut workers, &mut placed);

                // ---- merge, in ascending node-id order ----
                for (id, &(w, k)) in chunk.zip(&placed) {
                    graph.start_node();
                    if track_outputs {
                        let row = arena.row(id);
                        for &o in row
                            .iter()
                            .skip(2)
                            .step_by(SLOTS_PER_PROC)
                            .filter(|&&o| o != 0)
                        {
                            let i = (o - 1) as usize;
                            if seen.len() <= i {
                                seen.resize(i + 1, false);
                            }
                            if !seen[i] {
                                seen[i] = true;
                                outputs_seen.push(codec.output(o).expect("a packed output"));
                            }
                        }
                    }
                    let worker = &workers[w];
                    let node = &worker.expanded[k];
                    if first_violation.is_none() {
                        first_violation = node.violation.clone().map(|desc| (id, desc));
                    }
                    if node.terminal {
                        fully_terminated += 1;
                        continue;
                    }
                    if arena.len() >= self.max_configs {
                        truncated = true;
                        continue;
                    }
                    por_pruned += node.pruned;
                    let kids = node.children.start as usize..node.children.end as usize;
                    for child in &worker.children[kids] {
                        dedup_lookups += 1;
                        let to = match child.target {
                            Target::Known(to) => {
                                dedup_hits += 1;
                                to
                            }
                            // A row fresh at expand time may have been
                            // merged by an earlier node of this chunk.
                            Target::Fresh(n) => {
                                let n = n as usize;
                                let row = &worker.fresh_rows[n * width..(n + 1) * width];
                                let (to, new) = arena.insert(row, worker.fresh_hashes[n]);
                                if new {
                                    parents.push(ParentLink {
                                        node: node_id32(id),
                                        mask: child.mask,
                                        sig: child.sig,
                                    });
                                } else {
                                    dedup_hits += 1;
                                }
                                to
                            }
                        };
                        graph.edges.push(Edge {
                            to,
                            mask: child.mask,
                            sig: child.sig,
                        });
                    }
                }
            }
            level = level.end..arena.len();
        }
        graph.start_node();

        let (arena_rows, arena_hashes_index) = arena.bytes();
        let visited = VisitedBytes {
            arena_rows,
            arena_hashes_index,
            edges: graph.bytes(),
            parent_links: (parents.capacity() * std::mem::size_of::<ParentLink>()) as u64,
            interners: codec.approx_interner_bytes() as u64,
        };
        let mut stats = ExploreStats::measure(
            arena.len(),
            t0.elapsed(),
            visited,
            dedup_hits,
            dedup_lookups,
            interned_total(&codec),
        );
        stats.por_pruned_sets = por_pruned;
        Ok(GraphResult {
            arena,
            graph,
            parents,
            fully_terminated,
            truncated,
            first_violation,
            outputs_seen,
            stats,
            sym,
            root_sig,
        })
    }

    /// The parallel phase: expands every node of `chunk` into the
    /// workers' buffers and records in `placed`, per node in id order,
    /// which worker holds its [`Expanded`] entry at which index.
    /// Successors come from the codec's packed successor kernel
    /// ([`ConfigCodec::step_into`]), so no worker touches an
    /// [`Execution`]. The arena is only read here, never written.
    fn expand_chunk<S>(
        &self,
        expander: &Expander<'_, A, S>,
        chunk: Range<usize>,
        workers: &mut [Worker<A::Output>],
        placed: &mut Vec<(usize, usize)>,
    ) where
        S: Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync,
    {
        for w in workers.iter_mut() {
            w.clear();
        }
        // Results are placed by node id below, so which worker expanded
        // which node cannot leak into the output.
        let claim = (chunk.len() / (self.jobs * 8)).max(1);
        let base = chunk.start;
        sweep::for_each_chunk(chunk.len(), claim, workers, |worker, range| {
            for i in range {
                expander.expand(worker, base + i);
            }
        });
        placed.clear();
        placed.resize(chunk.len(), (0, 0));
        for (w, worker) in workers.iter().enumerate() {
            for (k, node) in worker.expanded.iter().enumerate() {
                placed[node.node as usize - chunk.start] = (w, k);
            }
        }
    }
}

/// Narrows a node id for packed [`Edge`]/[`ParentLink`] storage. Caps
/// keep explorations far below `2^32` nodes; a hypothetical overflow
/// panics rather than corrupting the graph.
fn node_id32(id: usize) -> u32 {
    u32::try_from(id).expect("node ids fit in u32")
}

/// Resolves an algorithm's POR certificate and cross-examines it
/// dynamically, returning a ready reduction context — the gate every
/// reduced exploration passes first.
fn por_gate<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    inputs: &[A::Input],
) -> Result<PorContext, ModelCheckError>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
    A::Input: Clone,
{
    let staircase = por::staircase_for(alg.por_certificate())
        .ok_or(ModelCheckError::PorUncertifiedAlgorithm)?;
    por::certify_dynamic(alg, topo, inputs, staircase)
        .map_err(ModelCheckError::PorCertificateViolation)?;
    Ok(PorContext::new(topo, staircase))
}

/// Total distinct interned values across the three component arenas.
fn interned_total<A: Algorithm>(codec: &ConfigCodec<A>) -> u64
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let (s, r, o) = codec.interned_counts();
    (s + r + o) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::mis::{mis_violation, EagerMis, LocalMaxMis};
    use ftcolor_core::{ring_safety, FiveColoring, SixColoring};

    fn pair_safety(
        max_weight: u64,
    ) -> impl Fn(&Topology, &[Option<ftcolor_core::PairColor>]) -> Option<String> + Sync {
        move |topo, outputs| {
            if let Some((a, b)) = topo.first_conflict(outputs) {
                return Some(format!("conflict on edge {a}-{b}"));
            }
            outputs
                .iter()
                .flatten()
                .find(|c| c.weight() > max_weight)
                .map(|c| format!("color {c} outside palette"))
        }
    }

    #[test]
    fn the_visited_bytes_split_adds_up_to_the_pinned_peak() {
        // `ftcolor modelcheck --alg alg2p --ids 0,1,2,3,4 --symmetry
        // --por --max-configs 40000`: every part is a buffer capacity, a
        // pure function of the instance, so the split is pinned whole.
        use ftcolor_core::{ring_safety, FiveColoringPatched};
        let topo = Topology::cycle(5).unwrap();
        let outcome = ModelChecker::new(&FiveColoringPatched, &topo, (0..5).collect())
            .with_max_configs(40_000)
            .with_symmetry(true)
            .with_por(true)
            .explore(ring_safety(&FiveColoringPatched))
            .unwrap();
        assert_eq!((outcome.configs, outcome.edges), (40_006, 78_385));
        let split = &outcome.stats.visited_split;
        assert_eq!(
            *split,
            VisitedBytes {
                arena_rows: 3_932_160,
                arena_hashes_index: 1_048_576,
                edges: 1_835_008,
                parent_links: 786_432,
                interners: 142_464,
            }
        );
        assert_eq!(split.total(), outcome.stats.peak_visited_bytes);
        assert_eq!(outcome.stats.peak_visited_bytes, 7_744_640);
    }

    #[test]
    fn algorithm_1_is_clean_on_c3() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]);
        let outcome = mc.explore(pair_safety(2)).unwrap();
        assert!(outcome.clean(), "{outcome}");
        assert!(outcome.fully_terminated_configs > 0);
        assert!(outcome.configs > 10);
        assert!(outcome.stats.dedup_lookups > 0);
        assert!(outcome.stats.peak_visited_bytes > 0);
    }

    #[test]
    fn algorithm_2_is_safe_on_c3_but_has_the_livelock() {
        // Exhaustive over C3: safety always holds; the crash-style
        // livelock (see alg2's finding test) is found automatically as a
        // cycle in the configuration graph.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        let outcome = mc.explore(ring_safety(&FiveColoring)).unwrap();
        assert!(outcome.safety_violation.is_none(), "{outcome}");
        assert!(!outcome.truncated, "{outcome}");
        assert!(outcome.fully_terminated_configs > 0);
    }

    #[test]
    fn eager_mis_violation_is_found_on_c4() {
        let topo = Topology::cycle(4).unwrap();
        let mc = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        let outcome = mc.explore(mis_violation).unwrap();
        let v = outcome.safety_violation.expect("violation must be found");
        assert!(v.description.contains("In/In"), "{}", v.description);
        // The witness schedule replays to the violation.
        let mut exec = Execution::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        for set in &v.schedule {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());
    }

    #[test]
    fn local_max_mis_fails_both_ways_on_c3() {
        // Exhaustive exploration finds, automatically, BOTH failure modes
        // Property 2.1 predicts some execution must exhibit:
        //
        // * a safety violation — the stale-In retraction race: p0 claims
        //   In while alone, retracts on re-check when p1 appears, but p1
        //   already committed Out against the stale claim; crash the
        //   rest, and p1 is Out with no terminating In neighbor;
        // * a livelock — a starvation cycle where a process is activated
        //   forever behind a frozen undecided register.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
        let outcome = mc.explore(mis_violation).unwrap();
        let v = outcome
            .safety_violation
            .as_ref()
            .expect("stale-In retraction violation");
        assert!(
            v.description.contains("no terminating In neighbor"),
            "{}",
            v.description
        );
        // Replay the safety witness.
        let mut exec = Execution::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
        for set in &v.schedule {
            exec.step_with(set);
        }
        assert!(mis_violation(&topo, exec.outputs()).is_some());

        let lw = outcome.livelock.expect("starvation cycle must exist");
        // Replay: run the prefix, then loop the cycle twice and observe
        // that the configuration repeats (genuine livelock).
        let mut exec = Execution::new(&LocalMaxMis, &topo, vec![1, 2, 3]);
        for set in &lw.prefix {
            exec.step_with(set);
        }
        let probe = |e: &Execution<'_, LocalMaxMis>| {
            (0..3)
                .map(|i| {
                    (
                        *e.state(ProcessId(i)),
                        e.register(ProcessId(i)).cloned(),
                        e.outputs()[i],
                    )
                })
                .collect::<Vec<_>>()
        };
        let before = probe(&exec);
        for set in &lw.cycle {
            exec.step_with(set);
        }
        assert_eq!(
            probe(&exec),
            before,
            "cycle must return to the same configuration"
        );
        assert!(!exec.all_returned());
    }

    use ftcolor_model::ProcessId;

    #[test]
    fn jobs_default_to_one_and_zero_means_auto() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]);
        assert_eq!(mc.jobs(), 1);
        assert!(mc.with_jobs(0).jobs() >= 1);
    }

    #[test]
    fn node_arena_dedups_exactly_across_growth() {
        // Every row shares one hash, so each lookup must compare rows;
        // 1,500 nodes force the index to grow twice.
        let mut arena = NodeArena::new(2);
        for i in 0..1500u32 {
            assert_eq!(arena.insert(&[i, 7], 42), (i, true));
        }
        for i in 0..1500u32 {
            assert_eq!(arena.get(&[i, 7], 42), Some(i));
            assert_eq!(arena.insert(&[i, 7], 42), (i, false));
        }
        assert_eq!(arena.get(&[3, 8], 42), None);
        assert_eq!(arena.get(&[3, 7], 41), None, "the hash is part of the key");
        assert_eq!(arena.len(), 1500);
        assert_eq!(arena.row(17), &[17, 7]);
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let working: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        let subsets = all_nonempty_subsets(&working);
        assert_eq!(subsets.len(), 7);
        let mut distinct = std::collections::HashSet::new();
        for s in &subsets {
            distinct.insert(format!("{s:?}"));
        }
        assert_eq!(distinct.len(), 7);
    }

    #[test]
    fn symmetry_mode_shrinks_the_graph_and_keeps_the_verdict() {
        // [0, 1, 0, 1] is a proper initial coloring invariant under the
        // rotation-by-2 subgroup, so orbits genuinely collapse.
        let topo = Topology::cycle(4).unwrap();
        let full = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 0, 1])
            .explore(pair_safety(2))
            .unwrap();
        let reduced = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 0, 1])
            .with_symmetry(true)
            .explore(pair_safety(2))
            .unwrap();
        assert!(full.clean() && reduced.clean());
        assert!(
            reduced.configs < full.configs,
            "symmetric instance must quotient: {} vs {}",
            reduced.configs,
            full.configs
        );
    }

    #[test]
    fn symmetry_guard_rejects_non_cycles() {
        let topo = Topology::path(3).unwrap();
        let err = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .with_symmetry(true)
            .explore(pair_safety(2))
            .unwrap_err();
        assert_eq!(err, ModelCheckError::SymmetryUnsupported);
    }

    #[test]
    fn symmetry_livelock_witness_replays_concretely() {
        let topo = Topology::cycle(3).unwrap();
        let outcome = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
            .with_symmetry(true)
            .explore(ring_safety(&FiveColoring))
            .unwrap();
        let lw = outcome
            .livelock
            .expect("alg2 livelock survives the quotient");
        let mut exec = Execution::new(&FiveColoring, &topo, vec![0, 1, 2]);
        for set in &lw.prefix {
            exec.step_with(set);
        }
        let probe = |e: &Execution<'_, FiveColoring>| {
            (0..3)
                .map(|i| {
                    (
                        *e.state(ProcessId(i)),
                        e.register(ProcessId(i)).cloned(),
                        e.outputs()[i],
                    )
                })
                .collect::<Vec<_>>()
        };
        let before = probe(&exec);
        for set in &lw.cycle {
            exec.step_with(set);
        }
        assert_eq!(probe(&exec), before, "de-canonicalized cycle repeats");
        assert!(!exec.all_returned());
    }
}

#[cfg(test)]
mod exact_tests {
    use super::*;
    use ftcolor_core::{FiveColoring, SixColoring};

    #[test]
    fn exact_worst_case_for_algorithm_1_on_c3() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]);
        let exact = mc.exact_worst_case().unwrap().expect("acyclic");
        // The Theorem 3.1 bound is ⌊9/2⌋ + 4 = 8; the true worst case
        // must not exceed it and must be at least 2 (round 1 always
        // conflicts under simultaneous wake-up).
        assert!(exact <= 8, "exact {exact} exceeds the proven bound");
        assert!(exact >= 2);
    }

    #[test]
    fn exact_worst_case_is_input_arrangement_sensitive() {
        let topo = Topology::cycle(4).unwrap();
        let mc_chain = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2, 3]);
        let chain = mc_chain.exact_worst_case().unwrap().unwrap();
        let mc_alt = ModelChecker::new(&SixColoring, &topo, vec![0, 2, 1, 3]);
        let alt = mc_alt.exact_worst_case().unwrap().unwrap();
        assert!(chain <= 10 && alt <= 10);
        // Both obey Theorem 3.1; the monotone-chain input cannot be
        // easier than the alternating-ish one.
        assert!(chain >= alt, "chain {chain} vs alt {alt}");
    }

    #[test]
    fn cyclic_graphs_yield_none() {
        // Algorithm 2 on C3 has the documented livelock: unbounded.
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2]);
        assert_eq!(mc.exact_worst_case().unwrap(), None);
    }

    #[test]
    fn truncated_worst_case_still_reports_stats() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]).with_max_configs(5);
        let (w, stats) = mc.exact_worst_case_with_stats().unwrap();
        assert_eq!(w, None, "cap of 5 certifies nothing");
        assert!(stats.dedup_lookups > 0, "but the work done is reported");
    }

    #[test]
    fn symmetry_preserves_exact_worst_case() {
        let topo = Topology::cycle(4).unwrap();
        for inputs in [vec![0u64, 1, 2, 3], vec![7, 7, 7, 7], vec![3, 1, 3, 1]] {
            let full = ModelChecker::new(&SixColoring, &topo, inputs.clone())
                .exact_worst_case()
                .unwrap();
            let reduced = ModelChecker::new(&SixColoring, &topo, inputs.clone())
                .with_symmetry(true)
                .exact_worst_case()
                .unwrap();
            assert_eq!(full, reduced, "inputs {inputs:?}");
        }
    }
}
