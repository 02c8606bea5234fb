//! Multi-threaded frontier expansion for the exhaustive model checker.
//!
//! [`ParallelModelChecker`] explores the same reachable-configuration
//! graph as the sequential [`crate::ModelChecker`] and produces
//! **bit-identical** outcomes — same [`crate::modelcheck::SafetyViolation`],
//! same [`crate::modelcheck::LivelockWitness`], same `outputs_seen`
//! order, same `exact_worst_case` — regardless of thread count. That
//! guarantee is what makes the parallel checker *usable as evidence*:
//! a counterexample or a bound computed at `--jobs 8` is exactly the one
//! the audited single-threaded checker would print.
//!
//! # How determinism survives parallelism
//!
//! The sequential checker's FIFO BFS dequeues nodes in configuration-id
//! order, and ids are assigned in (parent id, activation-subset index)
//! order — so the whole exploration is a pure function of the instance.
//! The parallel engine replays exactly that order with a
//! **level-synchronized BFS**:
//!
//! 1. **Expand (parallel).** The current frontier (one BFS level) is
//!    split into per-worker index ranges; workers claim chunks from
//!    their own range and *steal* from the back of the largest remaining
//!    range when they run dry. Each worker reads outputs and the
//!    working set straight off a frontier node's packed row and computes
//!    the expensive part: the safety predicate, the terminal check, and
//!    one packed successor key per activation subset — stepped on the
//!    packed row itself by the codec's memoized successor kernel
//!    ([`ConfigCodec::step_packed`], see [`ftcolor_model::encode`]), with
//!    no [`Execution`] involved — consulting the sharded visited-set
//!    (partitioned by the keys' precomputed `u64` hashes, one
//!    `parking_lot::Mutex`-guarded shard each) to classify successors
//!    already discovered in previous levels. The visited-set is *frozen*
//!    during this phase, so reads race with nothing.
//! 2. **Merge (sequential, canonical order).** Workers' results are
//!    reassembled by frontier index and folded in ascending node-id
//!    order, replaying the sequential checker's exact bookkeeping:
//!    first-seen output collection, lowest-id-wins safety violation
//!    (lexicographically smallest counterexample — BFS parent chains
//!    order witnesses by (length, discovery order)), terminal counting,
//!    the configuration-cap check, new-id assignment in (parent,
//!    subset) order, and the dedup-statistics counters. Duplicates
//!    discovered concurrently within one level are resolved here,
//!    deterministically, never by race outcome.
//!
//! Cycle detection and the worst-case DP then run on the resulting edge
//! list, which is identical to the sequential one — so every downstream
//! artifact is too. In [`ParallelModelChecker::with_symmetry`] mode both engines
//! canonicalize successors the same way (orbit representatives are
//! elected by run-independent value hashes, not intern-index assignment
//! order), so parallel symmetry-reduced runs match sequential ones too.
//!
//! # Reduced and external-memory modes
//!
//! [`ParallelModelChecker::with_por`] enumerates the certified reduced
//! activation-subset family (see [`crate::por`]) instead of all
//! `2^|working| − 1` subsets; because the reduced family is a pure
//! function of the source configuration — enumerated in the same
//! ascending-mask order as the full family — the level-synchronized
//! merge replays the sequential reduced exploration verbatim, and
//! `--por` outcomes stay bit-identical at every thread count.
//!
//! [`ParallelModelChecker::with_extmem`] swaps the sharded in-RAM
//! visited-set for the disk-backed [`ExtVisited`] store. The expand
//! phase then classifies *every* successor as fresh (no concurrent disk
//! probing); the merge phase first resolves the level's fresh keys in
//! one batched streaming pass over the sorted runs (delayed duplicate
//! detection), then falls back to a level-local exact map — the same
//! two-tier lookup the RAM path performs, so every counter and id
//! assignment is bit-identical to the in-RAM run. Only the key→id map
//! is budgeted: the node arena and edge lists stay RAM-resident.
//!
//! [`ParallelModelChecker::with_bloom`] replaces the visited-set with a
//! lossy Bloom filter for falsification-only sweeps: duplicate
//! suppression keeps no node ids, so suppressed edges are dropped from
//! the graph and cycle detection is impossible — outcomes carry
//! `lossy = true`, report `livelock: None` categorically, and never
//! compare equal to sound runs. Safety violations found this way are
//! still real (their parent chains are intact and replayable); a clean
//! Bloom run certifies nothing, and the honest false-positive budget is
//! reported in [`ExploreStats::bloom_fp_per_million`].

use crate::extmem::{BloomVisited, ExtVisited, ExtmemConfig, BLOOM_HASHES};
use crate::modelcheck::{
    concrete_livelock_witness, concrete_safety_witness, decode_cycle, find_cycle, interned_total,
    node_id32, por_gate, subsets_with_masks, visited_bytes, worst_case_from_graph, Edge,
    ModelCheckError, ModelCheckOutcome, ParentLink,
};
use crate::por::PorContext;
use crate::stats::ExploreStats;
use crate::symmetry::{CycleSymmetry, SIGMA_ID};
use ftcolor_model::encode::{CfgKey, ConfigCodec, PassthroughBuild};
use ftcolor_model::sweep::RangeQueue;
use ftcolor_model::{ActivationSet, Algorithm, Execution, ProcessId, Topology};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::time::Instant;

/// Number of hash-partitioned shards in the visited-set. A power of two
/// comfortably above any realistic worker count, so shard collisions
/// between concurrent readers are rare.
const SHARDS: usize = 64;

/// A visited-set hash-partitioned into independently locked shards.
///
/// Shard choice reuses the key's precomputed run-independent `u64`
/// configuration hash, so the partition is a pure function of the key —
/// identical across runs, threads, and machines — and the inner maps
/// skip rehashing entirely ([`PassthroughBuild`]).
struct ShardedMap {
    shards: Vec<Mutex<HashMap<CfgKey, usize, PassthroughBuild>>>,
}

impl ShardedMap {
    fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::with_hasher(PassthroughBuild::default())))
                .collect(),
        }
    }

    fn shard_of(key: &CfgKey) -> usize {
        (key.hash as usize) % SHARDS
    }

    fn get(&self, key: &CfgKey) -> Option<usize> {
        self.shards[Self::shard_of(key)].lock().get(key).copied()
    }

    fn insert(&self, key: CfgKey, id: usize) {
        self.shards[Self::shard_of(&key)].lock().insert(key, id);
    }
}

/// The visited-set backing an exploration: exact in-RAM (default),
/// exact external-memory, or lossy Bloom.
enum Backend {
    Ram(ShardedMap),
    Ext(ExtVisited),
    Bloom(BloomVisited),
}

/// One successor computed during the parallel expand phase: the
/// activation-subset bitmask taken (over the source configuration's
/// ascending working list), the canonicalizing automorphism, and either
/// the already-known target id or the packed key for merge-phase
/// resolution. In the external-memory and Bloom modes every child is
/// `Fresh` — the store is consulted only during the merge.
enum Child {
    /// The configuration was already visited in an earlier level.
    Known(usize, u32, u16),
    /// Not yet in the visited-set at expand time; the merge phase
    /// resolves same-level duplicates and assigns the canonical id.
    Fresh(CfgKey, u32, u16),
}

/// Everything the merge phase needs about one expanded frontier node.
struct Expansion<O> {
    /// Outputs present at this configuration, in process order.
    outputs: Vec<O>,
    /// Safety-predicate result at this configuration.
    violation: Option<String>,
    /// Every process has returned: no successors.
    terminal: bool,
    /// Successors in activation-subset (mask) order; empty when terminal
    /// or when expansion is globally disabled (cap already reached).
    children: Vec<Child>,
    /// Activation subsets POR pruned at this node (`0` outside `--por`).
    /// Credited by the merge phase only when the node actually expands,
    /// so capped nodes don't count — exactly the sequential bookkeeping.
    pruned: u64,
}

/// Fully merged exploration result; shared by `explore` and
/// `exact_worst_case`.
struct GraphResult<O> {
    edges: Vec<Vec<Edge>>,
    parents: Vec<ParentLink>,
    /// Packed key of every node, indexed by id — the decode arena for
    /// witness reconstruction (edges store subset bitmasks, which only
    /// mean something against the source node's working list).
    nodes: Vec<CfgKey>,
    configs: usize,
    edge_count: usize,
    fully_terminated: usize,
    truncated: bool,
    /// Lowest-id violating configuration and its description.
    first_violation: Option<(usize, String)>,
    outputs_seen: Vec<O>,
    /// Bloom mode: duplicate suppression lost edges, so the graph is a
    /// subgraph of the real one and cycle detection is off the table.
    lossy: bool,
    stats: ExploreStats,
    sym: Option<CycleSymmetry>,
    root_sig: u16,
}

/// Multi-threaded drop-in for [`crate::ModelChecker`].
///
/// ```
/// use ftcolor_checker::{ModelChecker, ParallelModelChecker};
/// use ftcolor_core::SixColoring;
/// use ftcolor_model::Topology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::cycle(3)?;
/// let safety = |topo: &Topology, outs: &[Option<_>]| {
///     topo.first_conflict(outs).map(|(a, b)| format!("{a}-{b}"))
/// };
/// let seq = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]).explore(safety)?;
/// let par = ParallelModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
///     .with_jobs(4)
///     .explore(safety)?;
/// assert_eq!(seq, par); // bit-identical, whatever the thread count
/// # Ok(())
/// # }
/// ```
pub struct ParallelModelChecker<'a, A: Algorithm> {
    alg: &'a A,
    topo: &'a Topology,
    inputs: Vec<A::Input>,
    max_configs: usize,
    jobs: usize,
    symmetry: bool,
    por: bool,
    extmem: Option<ExtmemConfig>,
    bloom: Option<u64>,
}

impl<'a, A: Algorithm + Sync> ParallelModelChecker<'a, A>
where
    A::State: Eq + Hash + Send + Sync,
    A::Reg: Eq + Hash + Send + Sync,
    A::Output: Eq + Hash + Send + Sync,
    A::Input: Clone + Sync,
{
    /// Creates a checker with the default configuration cap (2,000,000)
    /// and one worker per available CPU.
    pub fn new(alg: &'a A, topo: &'a Topology, inputs: Vec<A::Input>) -> Self {
        ParallelModelChecker {
            alg,
            topo,
            inputs,
            max_configs: 2_000_000,
            jobs: default_jobs(),
            symmetry: false,
            por: false,
            extmem: None,
            bloom: None,
        }
    }

    /// Overrides the configuration cap; exploration beyond it returns a
    /// truncated (but still sound for the explored part) outcome.
    pub fn with_max_configs(mut self, cap: usize) -> Self {
        self.max_configs = cap.max(1);
        self
    }

    /// Sets the worker count; `0` means one worker per available CPU.
    /// The outcome is identical for every value — only wall-clock
    /// changes.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// Enables symmetry reduction — see
    /// [`crate::ModelChecker::with_symmetry`] for semantics and the
    /// soundness guard. Sequential and parallel symmetry-reduced runs
    /// are bit-identical to each other.
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Enables certified partial-order reduction — see
    /// [`crate::ModelChecker::with_por`] for the certificate gate and
    /// the soundness story. Sequential and parallel `--por` runs are
    /// bit-identical to each other at every thread count, and
    /// [`Self::exact_worst_case`] ignores the flag for the same reason
    /// the sequential checker does.
    pub fn with_por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Backs the visited-set with the external-memory store of
    /// [`crate::extmem`]: the key→id map spills to sorted on-disk runs
    /// past `config.ram_budget_bytes` and duplicates are detected in
    /// batched streaming passes. Outcomes (dedup statistics included)
    /// are bit-identical to in-RAM runs; only the node arena and edge
    /// lists remain RAM-resident. Mutually exclusive with
    /// [`Self::with_bloom`].
    pub fn with_extmem(mut self, config: ExtmemConfig) -> Self {
        self.extmem = Some(config);
        self
    }

    /// Replaces the visited-set with a lossy Bloom filter of `bits`
    /// bits (rounded up; minimum 1024) for falsification-only sweeps.
    /// [`Self::explore`] outcomes then carry `lossy = true`: safety
    /// violations are still sound and replayable, but livelock
    /// detection is disabled and a clean run certifies nothing (a false
    /// positive may have pruned real states — the estimated budget is
    /// reported in [`ExploreStats::bloom_fp_per_million`]).
    /// [`Self::exact_worst_case`] ignores this mode and always uses a
    /// sound visited-set. Mutually exclusive with [`Self::with_extmem`].
    pub fn with_bloom(mut self, bits: u64) -> Self {
        self.bloom = Some(bits);
        self
    }

    /// The worker count this checker will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Explores the reachable configuration graph with `jobs` workers,
    /// checking `safety` at every configuration and searching for
    /// livelock cycles. Output is bit-identical to
    /// [`crate::ModelChecker::explore`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology,
    /// [`ModelCheckError::SymmetryUnsupported`] when symmetry reduction
    /// is enabled on a non-cycle topology,
    /// [`ModelCheckError::PorUncertifiedAlgorithm`] /
    /// [`ModelCheckError::PorCertificateViolation`] when POR is enabled
    /// without a (dynamically validated) certificate,
    /// [`ModelCheckError::VisitedModeConflict`] when both external-
    /// memory and Bloom modes are requested, and
    /// [`ModelCheckError::ExtmemIo`] on run-file I/O failures.
    pub fn explore(
        &self,
        safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync,
    ) -> Result<ModelCheckOutcome<A::Output>, ModelCheckError> {
        let g = self.explore_graph(&safety, true, self.por, true)?;
        let mut working_of = |id: usize| ConfigCodec::<A>::working(&g.nodes[id].packed);
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
        // A lossy (Bloom) graph is missing every suppressed edge, so any
        // cycle verdict on it would be noise — livelock detection is
        // categorically off.
        let livelock = if g.lossy {
            None
        } else {
            find_cycle(&g.edges).map(|(entry, raw)| {
                let cycle = decode_cycle(&raw, &mut working_of);
                concrete_livelock_witness(
                    &g.parents,
                    entry,
                    &cycle,
                    g.sym.as_ref(),
                    g.root_sig,
                    &mut working_of,
                )
            })
        };
        Ok(ModelCheckOutcome {
            configs: g.configs,
            edges: g.edge_count,
            fully_terminated_configs: g.fully_terminated,
            safety_violation,
            livelock,
            outputs_seen: g.outputs_seen,
            truncated: g.truncated,
            lossy: g.lossy,
            stats: g.stats,
        })
    }

    /// Exact worst-case round complexity over all schedules, computed on
    /// the parallel-explored graph. Identical to
    /// [`crate::ModelChecker::exact_worst_case`]: `None` when the graph
    /// is cyclic or exploration was truncated. POR and Bloom modes are
    /// deliberately not applied here (the DP needs every path and every
    /// edge); the external-memory mode is, since it is exact.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case(&self) -> Result<Option<u64>, ModelCheckError> {
        Ok(self.exact_worst_case_with_stats()?.0)
    }

    /// [`Self::exact_worst_case`] plus the exploration's performance
    /// counters, so truncated (`Ok((None, _))`) runs can report the work
    /// they did instead of silently discarding it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCheckError::InputLengthMismatch`] when inputs
    /// don't match the topology.
    pub fn exact_worst_case_with_stats(
        &self,
    ) -> Result<(Option<u64>, ExploreStats), ModelCheckError> {
        let g = self.explore_graph(
            &|_: &Topology, _: &[Option<A::Output>]| None,
            false,
            false,
            false,
        )?;
        if g.truncated {
            return Ok((None, g.stats)); // truncated: cannot certify
        }
        let mut working_of = |id: usize| ConfigCodec::<A>::working(&g.nodes[id].packed);
        let w = worst_case_from_graph(&g.edges, self.topo.len(), g.sym.as_ref(), &mut working_of);
        Ok((w, g.stats))
    }

    /// Level-synchronized BFS: parallel expand, canonical sequential
    /// merge. See the module docs for why this reproduces the
    /// sequential exploration exactly.
    fn explore_graph(
        &self,
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
        track_outputs: bool,
        use_por: bool,
        allow_lossy: bool,
    ) -> Result<GraphResult<A::Output>, ModelCheckError> {
        if self.extmem.is_some() && self.bloom.is_some() {
            return Err(ModelCheckError::VisitedModeConflict);
        }
        let t0 = Instant::now();
        let template = Execution::try_new(self.alg, self.topo, self.inputs.clone())
            .map_err(|_| ModelCheckError::InputLengthMismatch)?;
        let sym = if self.symmetry {
            let group = CycleSymmetry::for_topology(self.topo)
                .ok_or(ModelCheckError::SymmetryUnsupported)?;
            // Same algorithm-certification guard as the sequential
            // checker: the group action must be able to reindex
            // view-position-indexed state data.
            let mut probe = template.state(ProcessId(0)).clone();
            if !self.alg.relabel_view(&mut probe, &[1, 0]) {
                return Err(ModelCheckError::SymmetryUncertifiedAlgorithm);
            }
            Some(group)
        } else {
            None
        };
        // Same POR gate as the sequential checker: certificate resolved,
        // then cross-examined dynamically before any reduced run.
        let por = if use_por && self.por {
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

        let io_err = |e: std::io::Error| ModelCheckError::ExtmemIo(e.to_string());
        let mut backend = match (&self.extmem, self.bloom) {
            (Some(cfg), _) => {
                let mut store = ExtVisited::new(cfg, 3 * self.topo.len()).map_err(io_err)?;
                store
                    .insert_batch([(root.clone(), node_id32(0))])
                    .map_err(io_err)?;
                Backend::Ext(store)
            }
            (None, Some(bits)) if allow_lossy => {
                let mut filter = BloomVisited::new(bits);
                filter.insert(&root);
                Backend::Bloom(filter)
            }
            _ => {
                let map = ShardedMap::new();
                map.insert(root.clone(), 0);
                Backend::Ram(map)
            }
        };

        let mut g = GraphResult {
            edges: vec![Vec::new()],
            parents: vec![None],
            nodes: vec![root.clone()],
            configs: 1,
            edge_count: 0,
            fully_terminated: 0,
            truncated: false,
            first_violation: None,
            outputs_seen: Vec::new(),
            lossy: matches!(backend, Backend::Bloom(_)),
            stats: ExploreStats::default(),
            sym,
            root_sig,
        };
        let mut seen_set: HashSet<A::Output> = HashSet::new();
        let (mut dedup_hits, mut dedup_lookups) = (0u64, 0u64);
        let (mut por_pruned, mut bloom_suppressed) = (0u64, 0u64);

        let mut frontier: Vec<(usize, CfgKey)> = vec![(0, root)];
        while !frontier.is_empty() {
            // Once the cap has been reached, no node of this or any later
            // level may expand (the sequential checker would flag each as
            // truncated) — skip the successor work entirely.
            let expand = g.configs < self.max_configs;
            let shared = match &backend {
                Backend::Ram(m) => Some(m),
                Backend::Ext(_) | Backend::Bloom(_) => None,
            };
            let results = self.expand_level(
                &codec,
                g.sym.as_ref(),
                por.as_ref(),
                &frontier,
                safety,
                shared,
                expand,
                track_outputs,
            );

            // External-memory mode: one batched streaming pass over the
            // sorted runs resolves every key this level produced against
            // all earlier levels (delayed duplicate detection). Looking
            // up keys whose parent node the merge will later skip (cap)
            // is harmless — lookups don't mutate bookkeeping.
            let resolved: HashMap<CfgKey, usize, PassthroughBuild> =
                if let Backend::Ext(store) = &mut backend {
                    let queries: Vec<CfgKey> = results
                        .iter()
                        .flat_map(|r| {
                            r.children.iter().filter_map(|c| match c {
                                Child::Fresh(key, _, _) => Some(key.clone()),
                                Child::Known(..) => None,
                            })
                        })
                        .collect();
                    store
                        .batch_lookup(&queries)
                        .map_err(io_err)?
                        .into_iter()
                        .map(|(k, id)| (k, id as usize))
                        .collect()
                } else {
                    HashMap::default()
                };
            // Exact ids assigned to keys first seen in *this* level
            // (external-memory and Bloom modes); the RAM path keeps them
            // in the sharded map directly.
            let mut level_new: HashMap<CfgKey, usize, PassthroughBuild> = HashMap::default();
            let mut new_records: Vec<(CfgKey, u32)> = Vec::new();

            // ---- merge, in ascending node-id order ----
            let mut next_frontier: Vec<(usize, CfgKey)> = Vec::new();
            for ((id, _), result) in frontier.iter().zip(results) {
                let id = *id;
                if track_outputs {
                    for o in result.outputs {
                        if seen_set.insert(o.clone()) {
                            g.outputs_seen.push(o);
                        }
                    }
                }
                if g.first_violation.is_none() {
                    if let Some(desc) = result.violation {
                        g.first_violation = Some((id, desc));
                    }
                }
                if result.terminal {
                    g.fully_terminated += 1;
                    continue;
                }
                if g.configs >= self.max_configs {
                    g.truncated = true;
                    continue;
                }
                por_pruned += result.pruned;
                for child in result.children {
                    dedup_lookups += 1;
                    let (fresh, mask, sig, known) = match child {
                        Child::Known(nid, mask, sig) => (None, mask, sig, Some(nid)),
                        Child::Fresh(key, mask, sig) => (Some(key), mask, sig, None),
                    };
                    let next_id = if let Some(nid) = known {
                        dedup_hits += 1;
                        nid
                    } else {
                        let key = fresh.expect("fresh child carries its key");
                        match &mut backend {
                            Backend::Ram(map) => match map.get(&key) {
                                // Discovered by an earlier node of this level.
                                Some(nid) => {
                                    dedup_hits += 1;
                                    nid
                                }
                                None => {
                                    let nid = g.edges.len();
                                    map.insert(key.clone(), nid);
                                    admit_node(&mut g, id, key, mask, sig, &mut next_frontier)
                                }
                            },
                            Backend::Ext(_) => {
                                match resolved.get(&key).or_else(|| level_new.get(&key)).copied() {
                                    Some(nid) => {
                                        dedup_hits += 1;
                                        nid
                                    }
                                    None => {
                                        let nid = g.edges.len();
                                        level_new.insert(key.clone(), nid);
                                        new_records.push((key.clone(), node_id32(nid)));
                                        admit_node(&mut g, id, key, mask, sig, &mut next_frontier)
                                    }
                                }
                            }
                            Backend::Bloom(filter) => {
                                if let Some(&nid) = level_new.get(&key) {
                                    dedup_hits += 1;
                                    nid
                                } else if filter.contains(&key) {
                                    // Claimed visited, but no id survives
                                    // — the edge cannot be recorded. This
                                    // is the lossiness: real duplicates
                                    // lose their back-edges (no cycle
                                    // detection) and false positives
                                    // prune reachable states.
                                    dedup_hits += 1;
                                    bloom_suppressed += 1;
                                    continue;
                                } else {
                                    filter.insert(&key);
                                    let nid = g.edges.len();
                                    level_new.insert(key.clone(), nid);
                                    admit_node(&mut g, id, key, mask, sig, &mut next_frontier)
                                }
                            }
                        }
                    };
                    g.edges[id].push(Edge {
                        to: node_id32(next_id),
                        mask,
                        sig,
                    });
                    g.edge_count += 1;
                }
            }
            if let Backend::Ext(store) = &mut backend {
                store.insert_batch(new_records.drain(..)).map_err(io_err)?;
            }
            frontier = next_frontier;
        }

        g.stats = ExploreStats::measure(
            g.configs,
            t0.elapsed(),
            visited_bytes(&codec, g.configs),
            dedup_hits,
            dedup_lookups,
            interned_total(&codec),
        );
        g.stats.por_pruned_sets = por_pruned;
        match &backend {
            Backend::Ram(_) => {}
            Backend::Ext(store) => {
                let s = store.stats();
                g.stats.extmem_spills = s.spills;
                g.stats.extmem_disk_bytes = s.disk_bytes;
                g.stats.extmem_merge_passes = s.merge_passes;
            }
            Backend::Bloom(filter) => {
                g.stats.bloom_bits = filter.nbits();
                g.stats.bloom_hashes = u64::from(BLOOM_HASHES);
                g.stats.bloom_insertions = filter.insertions();
                g.stats.bloom_suppressed_edges = bloom_suppressed;
                g.stats.bloom_fp_per_million = filter.est_fp_per_million();
            }
        }
        Ok(g)
    }

    /// The parallel phase: expands every frontier node, returning one
    /// [`Expansion`] per node *in frontier order*. Successors come from
    /// the codec's packed successor kernel
    /// ([`ConfigCodec::step_packed`]), so no worker touches an
    /// [`Execution`]. The visited-set (when present — the
    /// external-memory and Bloom modes defer all classification to the
    /// merge) is only read here, never written.
    #[allow(clippy::too_many_arguments)]
    fn expand_level(
        &self,
        codec: &ConfigCodec<A>,
        sym: Option<&CycleSymmetry>,
        por: Option<&PorContext>,
        frontier: &[(usize, CfgKey)],
        safety: &(impl Fn(&Topology, &[Option<A::Output>]) -> Option<String> + Sync),
        visited: Option<&ShardedMap>,
        expand: bool,
        track_outputs: bool,
    ) -> Vec<Expansion<A::Output>> {
        let expand_one = |key: &CfgKey| -> Expansion<A::Output> {
            let all_outputs = codec.outputs(&key.packed);
            // The predicate is pure, so evaluating it at configurations
            // the sequential checker would skip (those after the first
            // violation) changes nothing observable.
            let violation = safety(self.topo, &all_outputs);
            let outputs = if track_outputs {
                all_outputs.into_iter().flatten().collect()
            } else {
                Vec::new()
            };
            let working = ConfigCodec::<A>::working(&key.packed);
            let terminal = working.is_empty();
            let mut children = Vec::new();
            let mut pruned = 0u64;
            if !terminal && expand {
                let subsets = match por {
                    Some(p) => {
                        let reduced = p.reduced_subsets(&working);
                        pruned = ((1u64 << working.len()) - 1) - reduced.len() as u64;
                        reduced
                    }
                    None => subsets_with_masks(&working),
                };
                for (mask, set) in subsets {
                    let active = match &set {
                        ActivationSet::Only(ps) => ps,
                        ActivationSet::All => &working,
                    };
                    let succ = codec.step_packed(self.alg, self.topo, key, active);
                    let (succ, sig) = match sym {
                        Some(s) => s.canonicalize(codec, self.alg, true, &succ),
                        None => (succ, SIGMA_ID),
                    };
                    children.push(match visited.and_then(|v| v.get(&succ)) {
                        Some(nid) => Child::Known(nid, mask, sig),
                        None => Child::Fresh(succ, mask, sig),
                    });
                }
            }
            Expansion {
                outputs,
                violation,
                terminal,
                children,
                pruned,
            }
        };

        let workers = self.jobs.min(frontier.len()).max(1);
        if workers == 1 {
            return frontier.iter().map(|(_, key)| expand_one(key)).collect();
        }

        // Per-worker index ranges with back-half stealing: worker w owns
        // an even slice of the frontier and raids the fullest remaining
        // range when its own is exhausted.
        let queues: Vec<RangeQueue> = (0..workers)
            .map(|w| {
                let lo = frontier.len() * w / workers;
                let hi = frontier.len() * (w + 1) / workers;
                RangeQueue::new(lo, hi)
            })
            .collect();
        let chunk = (frontier.len() / (workers * 8)).max(1);

        let mut results: Vec<Option<Expansion<A::Output>>> =
            (0..frontier.len()).map(|_| None).collect();
        let mut parts = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let expand_one = &expand_one;
                    s.spawn(move |_| {
                        let mut local: Vec<(usize, Expansion<A::Output>)> = Vec::new();
                        let mut run = |range: std::ops::Range<usize>| {
                            for i in range {
                                local.push((i, expand_one(&frontier[i].1)));
                            }
                        };
                        loop {
                            if let Some(range) = queues[w].claim(chunk) {
                                run(range);
                                continue;
                            }
                            // Own range dry: steal from whoever has the
                            // most left (scan order fixed, outcome not —
                            // but results are reassembled by index, so
                            // scheduling can't leak into the output).
                            let victim = (0..workers)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| queues[v].remaining());
                            match victim.and_then(|v| queues[v].steal()) {
                                Some(range) => run(range),
                                None => break,
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("model-check worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("model-check worker panicked");

        for (i, expansion) in parts.drain(..).flatten() {
            results[i] = Some(expansion);
        }
        results
            .into_iter()
            .map(|r| r.expect("every frontier index expanded exactly once"))
            .collect()
    }
}

/// Appends a freshly discovered node to the graph arenas and the next
/// frontier, returning its id. Shared by every visited-set backend so
/// the (parent, subset)-order id assignment is written once.
fn admit_node<O>(
    g: &mut GraphResult<O>,
    parent: usize,
    key: CfgKey,
    mask: u32,
    sig: u16,
    next_frontier: &mut Vec<(usize, CfgKey)>,
) -> usize {
    let nid = g.edges.len();
    g.edges.push(Vec::new());
    g.parents.push(Some((node_id32(parent), mask, sig)));
    g.nodes.push(key.clone());
    next_frontier.push((nid, key));
    g.configs += 1;
    nid
}

// The per-worker claim/steal queues and the CPU-count default moved to
// `ftcolor_model::sweep` so the batch executor can sweep with the same
// scaffolding; re-exported for the checker-internal call sites.
pub(crate) use ftcolor_model::sweep::default_jobs;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelChecker;
    use ftcolor_core::mis::{mis_violation, EagerMis};
    use ftcolor_core::{FiveColoring, SixColoring};

    fn coloring_safety(
        palette: u64,
    ) -> impl Fn(&Topology, &[Option<u64>]) -> Option<String> + Sync {
        move |topo, outputs| {
            if let Some((a, b)) = topo.first_conflict(outputs) {
                return Some(format!("conflict on edge {a}-{b}"));
            }
            outputs
                .iter()
                .flatten()
                .find(|&&c| c >= palette)
                .map(|c| format!("color {c} outside palette"))
        }
    }

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

    /// A unique scratch directory under the system tempdir; removed by
    /// the caller.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ftcolor-par-{tag}-{}", std::process::id()))
    }

    #[test]
    fn matches_sequential_on_clean_instance() {
        let topo = Topology::cycle(3).unwrap();
        let seq = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .explore(pair_safety(2))
            .unwrap();
        for jobs in [1, 2, 8] {
            let par = ParallelModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
                .with_jobs(jobs)
                .explore(pair_safety(2))
                .unwrap();
            assert_eq!(seq, par, "jobs={jobs}");
            // Dedup statistics replay the sequential bookkeeping exactly.
            assert_eq!(seq.stats.dedup_lookups, par.stats.dedup_lookups);
            assert_eq!(seq.stats.dedup_hits, par.stats.dedup_hits);
        }
    }

    #[test]
    fn matches_sequential_livelock_witness() {
        let topo = Topology::cycle(3).unwrap();
        let seq = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
            .explore(coloring_safety(5))
            .unwrap();
        let par = ParallelModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
            .with_jobs(4)
            .explore(coloring_safety(5))
            .unwrap();
        assert_eq!(seq.livelock, par.livelock);
        assert_eq!(seq, par);
    }

    #[test]
    fn matches_sequential_safety_witness_and_worst_case() {
        let topo = Topology::cycle(4).unwrap();
        let seq_mc = ModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1]);
        let par_mc = ParallelModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1]).with_jobs(3);
        let seq = seq_mc.explore(mis_violation).unwrap();
        let par = par_mc.explore(mis_violation).unwrap();
        assert_eq!(seq.safety_violation, par.safety_violation);
        assert_eq!(seq, par);

        let topo3 = Topology::cycle(3).unwrap();
        let seq_w = ModelChecker::new(&SixColoring, &topo3, vec![0, 1, 2])
            .exact_worst_case()
            .unwrap();
        let par_w = ParallelModelChecker::new(&SixColoring, &topo3, vec![0, 1, 2])
            .with_jobs(4)
            .exact_worst_case()
            .unwrap();
        assert_eq!(seq_w, par_w);
        assert!(seq_w.is_some());
    }

    #[test]
    fn truncation_is_reproduced_exactly() {
        let topo = Topology::cycle(4).unwrap();
        for cap in [1, 7, 50, 333] {
            let seq = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
                .with_max_configs(cap)
                .explore(coloring_safety(5))
                .unwrap();
            let par = ParallelModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
                .with_max_configs(cap)
                .with_jobs(4)
                .explore(coloring_safety(5))
                .unwrap();
            assert!(seq.truncated && par.truncated, "cap={cap}");
            assert_eq!(seq, par, "cap={cap}");
        }
    }

    #[test]
    fn symmetry_matches_sequential_symmetry() {
        let topo = Topology::cycle(4).unwrap();
        let seq = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 0, 1])
            .with_symmetry(true)
            .explore(coloring_safety(5))
            .unwrap();
        for jobs in [1, 2, 8] {
            let par = ParallelModelChecker::new(&FiveColoring, &topo, vec![0, 1, 0, 1])
                .with_symmetry(true)
                .with_jobs(jobs)
                .explore(coloring_safety(5))
                .unwrap();
            assert_eq!(seq, par, "jobs={jobs}");
        }
    }

    #[test]
    fn por_matches_sequential_por_at_every_thread_count() {
        let topo = Topology::cycle(4).unwrap();
        let seq = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2, 3])
            .with_por(true)
            .explore(pair_safety(2))
            .unwrap();
        for jobs in [1, 2, 8] {
            let par = ParallelModelChecker::new(&SixColoring, &topo, vec![0, 1, 2, 3])
                .with_por(true)
                .with_jobs(jobs)
                .explore(pair_safety(2))
                .unwrap();
            assert_eq!(seq, par, "jobs={jobs}");
            assert_eq!(seq.stats.por_pruned_sets, par.stats.por_pruned_sets);
            assert_eq!(seq.stats.dedup_lookups, par.stats.dedup_lookups);
        }
        assert!(seq.stats.por_pruned_sets > 0);
    }

    #[test]
    fn por_refuses_uncertified_algorithms() {
        let topo = Topology::cycle(3).unwrap();
        let err = ParallelModelChecker::new(&EagerMis, &topo, vec![5, 9, 2])
            .with_por(true)
            .explore(mis_violation)
            .unwrap_err();
        assert_eq!(err, ModelCheckError::PorUncertifiedAlgorithm);
    }

    #[test]
    fn extmem_is_bit_identical_to_ram_even_when_spilling() {
        let topo = Topology::cycle(4).unwrap();
        let ram = ParallelModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
            .with_jobs(4)
            .explore(coloring_safety(5))
            .unwrap();
        let dir = scratch_dir("extmem");
        // A zero budget forces a spill after every level — the worst
        // case for delayed duplicate detection.
        let ext = ParallelModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2, 3])
            .with_jobs(4)
            .with_extmem(ExtmemConfig {
                dir: dir.clone(),
                ram_budget_bytes: 0,
            })
            .explore(coloring_safety(5))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ram, ext);
        assert_eq!(ram.stats.dedup_hits, ext.stats.dedup_hits);
        assert_eq!(ram.stats.dedup_lookups, ext.stats.dedup_lookups);
        assert!(ext.stats.extmem_spills > 0);
        assert!(ext.stats.extmem_disk_bytes > 0);
    }

    #[test]
    fn bloom_is_lossy_but_violations_stay_sound() {
        let topo = Topology::cycle(4).unwrap();
        let exact = ParallelModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1])
            .explore(mis_violation)
            .unwrap();
        // Generously sized filter: no false positives expected, so the
        // first (lowest-id) violation matches the exact run's.
        let lossy = ParallelModelChecker::new(&EagerMis, &topo, vec![5, 9, 2, 1])
            .with_bloom(1 << 20)
            .explore(mis_violation)
            .unwrap();
        assert!(lossy.lossy);
        assert!(lossy.livelock.is_none());
        assert!(!lossy.clean());
        assert_eq!(exact.safety_violation, lossy.safety_violation);
        assert!(lossy.stats.bloom_insertions > 0);
        assert_ne!(exact, lossy); // lossy runs never compare equal
    }

    #[test]
    fn extmem_and_bloom_together_are_refused() {
        let topo = Topology::cycle(3).unwrap();
        let dir = scratch_dir("conflict");
        let err = ParallelModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
            .with_extmem(ExtmemConfig {
                dir: dir.clone(),
                ram_budget_bytes: 1 << 20,
            })
            .with_bloom(1 << 16)
            .explore(pair_safety(2))
            .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err, ModelCheckError::VisitedModeConflict);
    }

    #[test]
    fn jobs_zero_means_auto() {
        let topo = Topology::cycle(3).unwrap();
        let mc = ParallelModelChecker::new(&SixColoring, &topo, vec![0, 1, 2]).with_jobs(0);
        assert!(mc.jobs() >= 1);
    }

    #[test]
    fn range_queue_claims_and_steals_disjointly() {
        let q = RangeQueue::new(0, 100);
        let a = q.claim(10).unwrap();
        let b = q.steal().unwrap();
        let c = q.claim(1000).unwrap();
        assert_eq!(a, 0..10);
        assert_eq!(b, 55..100);
        assert_eq!(c, 10..55);
        assert!(q.claim(1).is_none());
        assert!(q.steal().is_none());
    }
}
