//! Partial-order reduction for the exhaustive checkers.
//!
//! In the paper's asynchronous LOCAL model a process's transition reads
//! only its own state and its graph neighbors' registers, and writes
//! only its own state, register, and output. Activations of
//! **non-adjacent** processes therefore commute: stepping `{p, q}`
//! simultaneously, or `p` then `q`, or `q` then `p`, all land in the
//! same configuration. The full branching of
//! [`crate::modelcheck::all_nonempty_subsets`] explores every
//! interleaving of every subset anyway — most of those edges are
//! redundant. This module cuts them in two certified layers.
//!
//! # Layer 1 — connected-activation-set decomposition (*exact*)
//!
//! Only activation sets that are **connected** in the topology are
//! explored. Any activation set `S` decomposes into connected clusters
//! `S = S₁ ∪ … ∪ S_m` with no edges between clusters; by commutation,
//! stepping `S` equals stepping `S₁, …, S_m` sequentially (in any
//! order). Every configuration reachable with arbitrary sets is
//! therefore reachable with connected sets, and conversely every
//! connected-set edge is an ordinary edge — so the *reachable
//! configuration set is preserved exactly*; only redundant interleaving
//! edges disappear (on `C6`: 31 of the 63 subsets of a full working set
//! survive). Cycles are preserved exactly too: replacing each edge of a
//! configuration-graph cycle by its cluster sequence yields a longer
//! cycle through the same start configuration. Hence **every verdict —
//! safety, livelock, truncation, even `exact_worst_case` (per-process
//! activation counts are preserved by the cluster decomposition) — is
//! provably identical to the unreduced exploration.** This layer is
//! enabled by [`PorCert::Commuting`].
//!
//! # Layer 2 — canonical-component staircase (*verdict-preserving*)
//!
//! When returned processes split the working set into disconnected
//! components, the components evolve independently forever (their
//! separators' registers are frozen). The staircase explores only
//! activation sets inside the **canonical component** — the one
//! containing the smallest working process id — deferring all others.
//! This cuts cross-component interleavings of the *state space* itself,
//! not just redundant edges, so `configs` genuinely shrinks.
//!
//! Soundness needs more than commutation, which is why this layer
//! requires [`PorCert::CommutingTerminating`] (solo termination from
//! every reachable configuration — the property the static certifier
//! proves as `FTC-TERM-007`):
//!
//! * **Livelock**: a full-graph cycle activates processes inside the
//!   components of a working set that never shrinks again. Reorder any
//!   path to it component-by-component (cross-component moves commute),
//!   extending each deferred canonical component to termination via
//!   certified solo runs; the cycle's projection onto one component
//!   then replays verbatim once that component becomes canonical — a
//!   staircase-reachable cycle. Conversely every reduced cycle is a
//!   real cycle. Verdict preserved.
//! * **Safety**: outputs only accumulate (returned processes never step
//!   again), and the same reordering reaches a configuration whose
//!   outputs are a superset of any full-graph configuration's outputs.
//!   The staircase therefore preserves the safety verdict for
//!   **monotone** predicates — ones whose violations persist under
//!   additional outputs, like the edge-conflict and palette predicates
//!   the CLI checks. (Non-monotone predicates, e.g. the MIS "Out with
//!   no In neighbor" check, are only safe under Layer 1; no registry
//!   MIS candidate certifies a POR level anyway.)
//!
//! An algorithm certifying only [`PorCert::Commuting`] automatically
//! gets Layer 1 alone — the cycle-proviso fallback: Layer 1 trivially
//! satisfies the proviso (it never defers an enabled move forever,
//! because it preserves the reachable set exactly), so livelock and
//! liveness verdicts stay sound without the termination promise.
//!
//! # The certification gate
//!
//! Mirroring the `relabel_view` symmetry story, a per-algorithm
//! certificate ([`ftcolor_model::Algorithm::por_certificate`]) is
//! required *and* cross-examined dynamically before any reduced
//! exploration: `certify_dynamic` mini-explores the first
//! configurations of the actual instance, replays every non-adjacent
//! working pair simultaneously and in both sequential orders (the three
//! resulting packed configurations must coincide — this catches
//! interior-mutability smuggling like `ftcolor-core`'s `PorLiar`
//! mutant deterministically), and, for the staircase level, solo-runs
//! every working process with bounded fuel. Uncertified algorithms are
//! refused outright; certified-but-lying algorithms fail the probe and
//! are refused with a description of the mismatch.
//!
//! Witnesses need no de-canonicalization here: every reduced edge is a
//! real edge, so parent chains and cycles replay concretely as-is (and
//! compose with `--symmetry`'s frame algebra unchanged).

use ftcolor_model::encode::{ConfigCodec, MemoHasher};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::{Algorithm, Execution, PorCert, ProcessId, Topology};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash};

/// Number of reachable configurations the dynamic probe explores.
const PROBE_CONFIGS: usize = 32;

/// Fuel for each solo-termination probe run.
const SOLO_FUEL: usize = 64;

/// Precomputed reduction context: which activation subsets survive at a
/// given working set. Built once per exploration after the certificate
/// gate passes; each worker expands with its own clone, whose memo
/// ([`Self::masks`]) fills as it meets working sets.
#[derive(Clone)]
pub(crate) struct PorContext {
    /// Adjacency bitmask per process index (over all `n` processes).
    adj: Vec<u64>,
    /// Whether Layer 2 (the canonical-component staircase) is enabled.
    staircase: bool,
    /// Working-set process bitmask → its reduced masks' range in
    /// `memo_masks`.
    memo: HashMap<u64, (u32, u32), BuildHasherDefault<MemoHasher>>,
    memo_masks: Vec<u32>,
}

impl PorContext {
    /// Builds the context for `topo`; `staircase` enables Layer 2.
    ///
    /// # Panics
    ///
    /// Panics if the topology has 64 or more nodes (far past exhaustive
    /// reach).
    pub(crate) fn new(topo: &Topology, staircase: bool) -> PorContext {
        let n = topo.len();
        assert!(n < 64, "POR adjacency masks need a small instance");
        let mut adj = vec![0u64; n];
        for (a, b) in topo.edges() {
            adj[a.index()] |= 1 << b.index();
            adj[b.index()] |= 1 << a.index();
        }
        PorContext {
            adj,
            staircase,
            memo: HashMap::default(),
            memo_masks: Vec::new(),
        }
    }

    /// [`Self::reduced_masks`] of `working`, memoized by its process
    /// bitmask: the surviving subsets depend on the working set alone,
    /// so each distinct working set is enumerated once.
    ///
    /// # Panics
    ///
    /// Panics if `working` has 24 or more entries.
    pub(crate) fn masks(&mut self, working: &[ProcessId]) -> &[u32] {
        let key = working.iter().fold(0u64, |m, p| m | 1 << p.index());
        let (lo, hi) = match self.memo.get(&key) {
            Some(&range) => range,
            None => {
                let lo = self.memo_masks.len() as u32;
                let masks = self.reduced_masks(working);
                self.memo_masks.extend(masks);
                let range = (lo, self.memo_masks.len() as u32);
                self.memo.insert(key, range);
                range
            }
        };
        &self.memo_masks[lo as usize..hi as usize]
    }

    /// The surviving activation subsets of `working`, as bitmasks over it
    /// (bit `i` activates `working[i]`) in ascending order — the same
    /// enumeration order as [`crate::modelcheck::all_nonempty_subsets`],
    /// restricted, so the reduced exploration stays a pure function of
    /// the instance at every thread count. The iterator owns a copy of
    /// the working set's adjacency and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `working` has 24 or more entries.
    pub(crate) fn reduced_masks(&self, working: &[ProcessId]) -> impl Iterator<Item = u32> {
        let k = working.len();
        assert!(k < MAX_WORKING, "subset enumeration needs a small instance");
        // Adjacency restricted to working indices.
        let mut wadj = [0u32; MAX_WORKING];
        for (i, p) in working.iter().enumerate() {
            for (j, q) in working.iter().enumerate() {
                if i != j && self.adj[p.index()] & (1 << q.index()) != 0 {
                    wadj[i] |= 1 << j;
                }
            }
        }
        let everything = ((1u64 << k) - 1) as u32;
        let allowed = if self.staircase {
            // The canonical component: `working` is sorted ascending, so
            // index 0 is the smallest working id.
            closure(1, &wadj[..k])
        } else {
            everything
        };
        (1..=everything).filter(move |&mask| mask & !allowed == 0 && is_connected(mask, &wadj[..k]))
    }
}

/// Exclusive bound on the working-set size subset enumeration accepts.
const MAX_WORKING: usize = 24;

/// The closure of `seed` under `wadj` adjacency (a component mask).
fn closure(seed: u32, wadj: &[u32]) -> u32 {
    let mut comp = seed;
    loop {
        let mut grow = comp;
        for (i, &a) in wadj.iter().enumerate() {
            if comp & (1 << i) != 0 {
                grow |= a;
            }
        }
        if grow == comp {
            return comp;
        }
        comp = grow;
    }
}

/// Whether the nonzero `mask` induces a connected subgraph under `wadj`.
fn is_connected(mask: u32, wadj: &[u32]) -> bool {
    debug_assert!(mask != 0);
    let seed = mask & mask.wrapping_neg(); // lowest set bit
    let mut comp = seed;
    loop {
        let mut grow = comp;
        for (i, &a) in wadj.iter().enumerate() {
            if comp & (1 << i) != 0 {
                grow |= a & mask;
            }
        }
        if grow == comp {
            return comp == mask;
        }
        comp = grow;
    }
}

/// Dynamically cross-examines an algorithm's POR certificate on the
/// actual instance: explores the first [`PROBE_CONFIGS`] reachable
/// configurations (full, unreduced branching), and at each one
///
/// * replays every non-adjacent working pair `{p, q}` simultaneously
///   and in both sequential orders — the three resulting packed
///   configurations must be identical (commutation);
/// * when `staircase` is requested, solo-runs every working process
///   with [`SOLO_FUEL`] steps of fuel — each must return (the bounded,
///   dynamic shadow of `FTC-TERM-007`).
///
/// Returns a human-readable description of the first mismatch, which
/// the checkers surface as a certificate-violation error. The probe is
/// deterministic: BFS order is a pure function of the instance.
pub(crate) fn certify_dynamic<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    inputs: &[A::Input],
    staircase: bool,
) -> Result<(), String>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
    A::Input: Clone,
{
    let mut scratch = Execution::try_new(alg, topo, inputs.to_vec())
        .map_err(|e| format!("probe setup failed: {e:?}"))?;
    let codec: ConfigCodec<A> = ConfigCodec::new(topo.len());
    let root = codec.encode(&scratch);

    let mut visited = HashSet::new();
    let mut queue = VecDeque::new();
    visited.insert(root.clone());
    queue.push_back(root);

    while let Some(key) = queue.pop_front() {
        codec.restore(&mut scratch, &key);
        let working = scratch.working().to_vec();

        // Commutation: every non-adjacent working pair, three ways.
        for i in 0..working.len() {
            for j in i + 1..working.len() {
                let (p, q) = (working[i], working[j]);
                if topo.is_edge(p, q) {
                    continue;
                }
                scratch.step_with(&ActivationSet::of([p, q]));
                let simultaneous = codec.encode(&scratch);
                codec.restore(&mut scratch, &key);

                scratch.step_with(&ActivationSet::solo(p));
                scratch.step_with(&ActivationSet::solo(q));
                let p_then_q = codec.encode(&scratch);
                codec.restore(&mut scratch, &key);

                scratch.step_with(&ActivationSet::solo(q));
                scratch.step_with(&ActivationSet::solo(p));
                let q_then_p = codec.encode(&scratch);
                codec.restore(&mut scratch, &key);

                if simultaneous != p_then_q || p_then_q != q_then_p {
                    return Err(format!(
                        "non-adjacent activations of {p} and {q} do not commute \
                         at a reachable configuration (the algorithm claims \
                         PorCert::Commuting but its steps are coupled)"
                    ));
                }
            }
        }

        // Solo termination, when the staircase is requested.
        if staircase {
            for &p in &working {
                let mut returned = false;
                for _ in 0..SOLO_FUEL {
                    scratch.step_with(&ActivationSet::solo(p));
                    if !scratch.working().contains(&p) {
                        returned = true;
                        break;
                    }
                }
                codec.restore(&mut scratch, &key);
                if !returned {
                    return Err(format!(
                        "process {p} did not return within {SOLO_FUEL} solo steps \
                         from a reachable configuration (the algorithm claims \
                         PorCert::CommutingTerminating but is not solo-terminating)"
                    ));
                }
            }
        }

        // Expand (full branching — the probe watches the real space).
        if visited.len() >= PROBE_CONFIGS {
            continue;
        }
        for set in crate::modelcheck::all_nonempty_subsets(&working) {
            let touched = scratch.step_with(&set);
            let child = codec.encode_delta(&key, &scratch, &touched);
            codec.restore_procs(&mut scratch, &key.packed, &touched);
            if visited.len() < PROBE_CONFIGS && visited.insert(child.clone()) {
                queue.push_back(child);
            }
        }
    }
    Ok(())
}

/// Resolves a certificate into the staircase flag, refusing
/// [`PorCert::Uncertified`]. Shared by both checkers.
pub(crate) fn staircase_for(cert: PorCert) -> Option<bool> {
    match cert {
        PorCert::Uncertified => None,
        PorCert::Commuting => Some(false),
        PorCert::CommutingTerminating => Some(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize, staircase: bool) -> PorContext {
        PorContext::new(&Topology::cycle(n).unwrap(), staircase)
    }

    fn masks(por: &PorContext, working: &[usize]) -> Vec<u32> {
        let working: Vec<ProcessId> = working.iter().copied().map(ProcessId).collect();
        por.reduced_masks(&working).collect()
    }

    #[test]
    fn connected_subsets_of_the_full_c6_working_set() {
        let sets = masks(&ctx(6, false), &[0, 1, 2, 3, 4, 5]);
        // Connected subsets of C6: 6 arcs per length 1..=5, plus the
        // whole cycle: 6·5 + 1 = 31 of the 63 nonempty subsets.
        assert_eq!(sets.len(), 31);
        for &mask in &sets {
            assert!(mask > 0 && mask < 64);
            // Every surviving mask is a cyclic arc of working indices.
            let arc = (0..6).any(|start| {
                let len = mask.count_ones();
                (0..len).fold(0u32, |m, d| m | 1 << ((start + d) % 6)) == mask
            });
            assert!(arc, "mask {mask:#b} is not an arc of C6");
        }
    }

    #[test]
    fn clique_admits_every_subset() {
        let topo = Topology::clique(4).unwrap();
        let por = PorContext::new(&topo, false);
        // Everything is adjacent: no reduction at all.
        assert_eq!(masks(&por, &[0, 1, 2, 3]), (1..16).collect::<Vec<u32>>());
    }

    #[test]
    fn staircase_keeps_only_the_canonical_component() {
        // C6 with processes {0, 1, 3, 4} working: components {0,1} and
        // {3,4} (working indices {0,1} and {2,3}); the canonical one
        // contains process 0.
        let flat = masks(&ctx(6, false), &[0, 1, 3, 4]);
        let stair = masks(&ctx(6, true), &[0, 1, 3, 4]);
        // Decomposition alone: {0},{1},{0,1},{3},{4},{3,4}.
        assert_eq!(flat, vec![0b0001, 0b0010, 0b0011, 0b0100, 0b1000, 0b1100]);
        // Staircase: only {0},{1},{0,1}.
        assert_eq!(stair, vec![0b0001, 0b0010, 0b0011]);
    }

    #[test]
    fn singleton_moves_always_survive_in_the_canonical_component() {
        let sets = masks(&ctx(5, true), &[0, 1, 2, 3, 4]);
        assert!(sets.contains(&1), "solo moves survive");
        assert!(!sets.is_empty());
    }

    #[test]
    fn memoized_masks_equal_the_ascending_enumeration_for_every_working_set() {
        let topos = (3..=8)
            .map(|n| Topology::cycle(n).unwrap())
            .chain([Topology::path(4).unwrap()]);
        for topo in topos {
            let n = topo.len();
            for staircase in [false, true] {
                let mut por = PorContext::new(&topo, staircase);
                // Twice over every working subset: the first pass fills
                // the memo, the second reads it back.
                for pass in 0..2 {
                    for set in 1u32..1 << n {
                        let working: Vec<ProcessId> = (0..n)
                            .filter(|i| set & 1 << i != 0)
                            .map(ProcessId)
                            .collect();
                        let want: Vec<u32> = por.reduced_masks(&working).collect();
                        assert!(want.is_sorted(), "n={n} set={set:#b}: ascending order");
                        assert_eq!(
                            por.masks(&working),
                            &want[..],
                            "n={n} staircase={staircase} pass={pass} set={set:#b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probe_passes_pure_algorithms_and_catches_the_liar() {
        use ftcolor_core::mutants::PorLiar;
        use ftcolor_core::{FiveColoring, SixColoring};
        let topo = Topology::cycle(4).unwrap();
        assert_eq!(
            certify_dynamic(&SixColoring, &topo, &[0, 1, 2, 3], true),
            Ok(())
        );
        assert_eq!(
            certify_dynamic(&FiveColoring, &topo, &[0, 1, 2, 3], true),
            Ok(())
        );
        let err = certify_dynamic(&PorLiar::new(), &topo, &[0, 1, 2, 3], false)
            .expect_err("the smuggled clock must be caught");
        assert!(err.contains("do not commute"), "{err}");
    }

    #[test]
    fn certificate_levels_resolve() {
        assert_eq!(staircase_for(PorCert::Uncertified), None);
        assert_eq!(staircase_for(PorCert::Commuting), Some(false));
        assert_eq!(staircase_for(PorCert::CommutingTerminating), Some(true));
    }
}
