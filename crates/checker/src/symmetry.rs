//! Symmetry reduction for model checking on cycles.
//!
//! The algorithms of the paper are **anonymous**: [`Algorithm::publish`]
//! and [`Algorithm::step`] never see a `ProcessId`, so relabeling the
//! processes by any automorphism of the communication graph maps
//! executions to executions (activate the relabeled set, reach the
//! relabeled configuration). On the cycle `C_n` the automorphism group
//! is the dihedral group — `n` rotations and `n` reflections — so up to
//! `2n` distinct configurations collapse into one orbit.
//!
//! [`CycleSymmetry`] canonicalizes configurations to one representative
//! per orbit, shrinking both the visited-set and the explored graph by
//! a factor approaching `2n` on symmetric instances. Soundness
//! requirements, enforced or documented:
//!
//! * **vertex-transitive topology** — the guard: construction fails
//!   unless the topology is a single cycle ([`Topology::is_cycle`]);
//! * **anonymous transitions** — guaranteed by the [`Algorithm`] trait
//!   shape itself (only `init` sees the process id, and initial states
//!   are part of the configuration, so asymmetric *inputs* are handled
//!   correctly: they simply leave fewer configs with non-trivial
//!   orbits);
//! * **view-order certification** — neighbor lists are sorted by id and
//!   carry no global orientation, so a cycle automorphism generally
//!   permutes the *positions* in which a given process sees its two
//!   neighbors. The group action therefore reindexes any
//!   view-position-indexed state data through
//!   [`Algorithm::relabel_view`]; an algorithm that does not certify
//!   that hook (the conservative default) is refused by the checker's
//!   symmetry mode. Multiset-folding algorithms (Algorithms 1/2, the
//!   MIS candidates) certify it as a no-op; the patched variants, whose
//!   frozen-view escape stores the previous view *by position*, reindex
//!   it — exactly the data that made naive position-permutation unsound
//!   (a spurious livelock on capped `FiveColoringPatched` runs exposed
//!   this).
//!
//! The election ([`CycleSymmetry::canonicalize_into`]) reads only the
//! successor's entry lane ([`ftcolor_model::encode::LanedRow`]), which
//! the successor kernel already carries: each slot's value hash and
//! packed index, and each state's view-swapped twin. It takes no lock
//! and makes no interner lookup; a precomputed source table says, for
//! every automorphism and position, which lane entry lands there.
//!
//! Every witness surfaced from the quotient graph is **de-canonicalized**
//! (see `modelcheck::concrete_*_witness`): the per-edge canonicalizing
//! automorphism is stored, a cumulative frame permutation maps each
//! canonical-frame activation set back to the original instance's
//! process labels, and quotient livelock cycles are unrolled by the
//! order of their net automorphism so the concrete schedule really
//! revisits a concrete configuration.
//!
//! [`Algorithm::publish`]: ftcolor_model::Algorithm::publish
//! [`Algorithm::step`]: ftcolor_model::Algorithm::step
//! [`Algorithm`]: ftcolor_model::Algorithm
//! [`Topology::is_cycle`]: ftcolor_model::Topology::is_cycle

use ftcolor_model::encode::{
    slot_contrib, CfgKey, ConfigCodec, LanedRow, SlotEntry, LANE_PER_PROC, LANE_SWAPPED,
    SLOTS_PER_PROC,
};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::{Algorithm, ProcessId, Topology};
use std::hash::Hash;

/// Identity automorphism index — `CycleSymmetry::perms[0]` is always
/// the identity, so plain (non-symmetry) exploration stores `SIGMA_ID`
/// on every edge.
pub const SIGMA_ID: u16 = 0;

/// The dihedral automorphism group of a cycle topology, with
/// canonicalization, composition, and inversion.
pub struct CycleSymmetry {
    /// `perms[g][i]` = image of node `i` under automorphism `g`.
    /// `perms[0]` is the identity.
    perms: Vec<Vec<u32>>,
    /// `inv[g]` = index of the inverse of automorphism `g`.
    inv: Vec<u16>,
    /// `compose[a][b]` = index of `perms[a] ∘ perms[b]`
    /// (i.e. `i ↦ perms[a][perms[b][i]]`).
    compose: Vec<Vec<u16>>,
    /// `src[g·n + j]` — where image `g`'s process `j` comes from, as the
    /// [`LanedRow`] lane index of its state entry: `4·inv(g)(j)` plus
    /// [`LANE_SWAPPED`] when moving that source to `j` flips the order in
    /// which its (relabeled) neighbors appear in the destination's
    /// neighbor list, so its view-position-indexed state data must be
    /// reindexed by [`Algorithm::relabel_view`]. The source's register
    /// and output entries sit at offsets 1 and 2 of the same lane block.
    src: Vec<u32>,
    /// Whether element `g` flips any node's neighbor order (`perms[0]`,
    /// the identity, never does).
    needs_relabel: Vec<bool>,
}

impl CycleSymmetry {
    /// Builds the dihedral group of `topo`, or `None` when `topo` is not
    /// a single cycle — the symmetry-soundness guard.
    ///
    /// The cyclic order is recovered by walking the cycle, so relabeled
    /// cycles (nodes not numbered consecutively around the ring) are
    /// handled correctly.
    pub fn for_topology(topo: &Topology) -> Option<CycleSymmetry> {
        if !topo.is_cycle() {
            return None;
        }
        let n = topo.len();
        // Walk the ring from node 0 to recover the cyclic order.
        let mut order = Vec::with_capacity(n);
        let mut prev = ProcessId(0);
        let mut cur = topo.neighbors(prev)[0];
        order.push(prev);
        while cur != ProcessId(0) {
            order.push(cur);
            let nb = topo.neighbors(cur);
            let next = if nb[0] == prev { nb[1] } else { nb[0] };
            prev = cur;
            cur = next;
        }
        debug_assert_eq!(order.len(), n);

        // pos[v] = position of node v along the ring.
        let mut pos = vec![0usize; n];
        for (k, p) in order.iter().enumerate() {
            pos[p.index()] = k;
        }

        // Rotations r_k (ring position += k), then reflections
        // (position ↦ k − position), expressed on node labels.
        let mut perms = Vec::with_capacity(2 * n);
        for k in 0..n {
            let rot: Vec<u32> = (0..n)
                .map(|v| order[(pos[v] + k) % n].index() as u32)
                .collect();
            perms.push(rot);
        }
        for k in 0..n {
            let refl: Vec<u32> = (0..n)
                .map(|v| order[(n + k - pos[v]) % n].index() as u32)
                .collect();
            perms.push(refl);
        }

        let index_of = |perm: &[u32]| -> u16 {
            perms
                .iter()
                .position(|p| p == perm)
                .expect("dihedral group is closed") as u16
        };
        let compose: Vec<Vec<u16>> = perms
            .iter()
            .map(|a| {
                perms
                    .iter()
                    .map(|b| {
                        let ab: Vec<u32> = (0..n).map(|i| a[b[i] as usize]).collect();
                        index_of(&ab)
                    })
                    .collect()
            })
            .collect();
        let id: Vec<u32> = (0..n as u32).collect();
        let inv: Vec<u16> = (0..perms.len())
            .map(|a| {
                (0..perms.len())
                    .find(|&b| {
                        let ab: Vec<u32> = (0..n).map(|i| perms[a][perms[b][i] as usize]).collect();
                        ab == id
                    })
                    .expect("every group element has an inverse") as u16
            })
            .collect();
        debug_assert_eq!(perms[0], id, "rotation by 0 is the identity");

        // Per-element view-order bookkeeping: neighbor lists are sorted
        // by id, so an automorphism may flip the order in which a moved
        // node sees its two neighbors (e.g. across the 0/n−1 wraparound
        // even for rotations).
        let adj: Vec<[u32; 2]> = (0..n)
            .map(|v| {
                let nb = topo.neighbors(ProcessId(v));
                [nb[0].index() as u32, nb[1].index() as u32]
            })
            .collect();
        let view_swap: Vec<Vec<bool>> = perms
            .iter()
            .map(|perm| {
                (0..n)
                    .map(|i| {
                        let j = perm[i] as usize;
                        let mapped = [perm[adj[i][0] as usize], perm[adj[i][1] as usize]];
                        if mapped == adj[j] {
                            false
                        } else {
                            debug_assert_eq!(
                                [mapped[1], mapped[0]],
                                adj[j],
                                "every group element is a graph automorphism"
                            );
                            true
                        }
                    })
                    .collect()
            })
            .collect();
        let needs_relabel: Vec<bool> = view_swap.iter().map(|v| v.contains(&true)).collect();
        debug_assert!(!needs_relabel[SIGMA_ID as usize]);
        let src = (0..perms.len())
            .flat_map(|g| {
                let (ginv, swap) = (&perms[inv[g] as usize], &view_swap[g]);
                ginv.iter().map(move |&i| {
                    let i = i as usize;
                    (LANE_PER_PROC * i + usize::from(swap[i]) * LANE_SWAPPED) as u32
                })
            })
            .collect();

        Some(CycleSymmetry {
            perms,
            inv,
            compose,
            src,
            needs_relabel,
        })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.perms[0].len()
    }

    /// Number of group elements (`2n`).
    pub fn group_len(&self) -> usize {
        self.perms.len()
    }

    /// The permutation array of automorphism `g`.
    pub fn perm(&self, g: u16) -> &[u32] {
        &self.perms[g as usize]
    }

    /// Index of the inverse of `g`.
    pub fn invert(&self, g: u16) -> u16 {
        self.inv[g as usize]
    }

    /// Index of `a ∘ b` (apply `b` first).
    pub fn compose(&self, a: u16, b: u16) -> u16 {
        self.compose[a as usize][b as usize]
    }

    /// Multiplicative order of `g` (smallest `r ≥ 1` with `gʳ = id`).
    pub fn order(&self, g: u16) -> usize {
        let mut acc = g;
        let mut r = 1;
        while acc != SIGMA_ID {
            acc = self.compose(g, acc);
            r += 1;
        }
        r
    }

    /// Maps an activation set through automorphism `g` (canonical-frame
    /// process labels to concrete ones, when `g` is the cumulative
    /// frame permutation).
    pub fn apply_to_set(&self, g: u16, set: &ActivationSet) -> ActivationSet {
        match set {
            ActivationSet::All => ActivationSet::All,
            ActivationSet::Only(ps) => {
                let perm = self.perm(g);
                ActivationSet::of(ps.iter().map(|p| ProcessId(perm[p.index()] as usize)))
            }
        }
    }

    /// Canonicalizes `key` to its orbit representative: the packed
    /// buffer that is minimal under the order (slot value-hashes, then
    /// packed indices) over all `2n` relabelings. Returns the canonical
    /// key and the automorphism `g` that produced it
    /// (`canonical[g(i)·3+s] = action_g(key)[i·3+s]`).
    ///
    /// The [`CfgKey`] wrapper of [`Self::canonicalize_into`], which
    /// documents the election: it fills a lane for `key` with
    /// [`ConfigCodec::entries_into`] (view swaps included when
    /// `relabel`) and elects from it.
    ///
    /// # Panics
    ///
    /// Panics if `relabel` is set and `alg` does not certify
    /// [`Algorithm::relabel_view`].
    pub fn canonicalize<A: Algorithm>(
        &self,
        codec: &ConfigCodec<A>,
        alg: &A,
        relabel: bool,
        key: &CfgKey,
    ) -> (CfgKey, u16)
    where
        A::State: Eq + Hash,
        A::Reg: Eq + Hash,
        A::Output: Eq + Hash,
    {
        let mut node = LanedRow::new(self.n(), relabel);
        codec.entries_into(alg, &key.packed, key.hash, &mut node);
        let mut out = vec![0u32; key.packed.len()];
        match self.canonicalize_into(&node, &mut out) {
            None => (key.clone(), SIGMA_ID),
            Some((hash, g)) => (
                CfgKey {
                    hash,
                    packed: out.into(),
                },
                g,
            ),
        }
    }

    /// Elects the orbit representative of `node`'s row from its entry
    /// lane alone — no codec, no lock, no interner lookup. Returns `None`
    /// when the row already is the representative (the identity wins;
    /// `out` is left untouched), otherwise writes the representative
    /// into `out` and returns its hash and the automorphism `g` that
    /// produced it (`out[g(i)·3+s] = action_g(row)[i·3+s]`). Allocates
    /// nothing.
    ///
    /// The group *action* moves each process's slots to its image and,
    /// where the automorphism flips a node's neighbor order, replaces
    /// the state by its view-reindexed twin (the lane's swapped entry)
    /// — without that, relabeled configurations of algorithms with
    /// view-position-indexed state (e.g. a stored previous view) would
    /// not step equivariantly and the quotient would be unsound. When
    /// `node` carries no view swaps ([`LanedRow::relabel`] is `false`:
    /// the algorithm does not certify [`Algorithm::relabel_view`]), only
    /// order-preserving elements participate — sound, but on sorted
    /// neighbor lists that is the identity alone, so callers should
    /// refuse symmetry for uncertified algorithms instead.
    ///
    /// Images are ordered slot by slot, each slot by its [`SlotEntry`]:
    /// the seed-free *value hash* first, then the packed index. Hashes
    /// rather than intern indices lead so that runs at different worker
    /// counts — which may intern values in different orders — still
    /// elect the same representative; ties go to the lowest `g`. The
    /// election takes a branch-free minimum over every image's first
    /// slot and compares slot by slot only among the images tied there.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `out` is not sized for this group's `n`.
    pub fn canonicalize_into(&self, node: &LanedRow, out: &mut [u32]) -> Option<(u64, u16)> {
        let n = self.n();
        let lane = node.lane();
        assert_eq!(lane.len(), n * LANE_PER_PROC, "lane must hold 4n entries");
        assert_eq!(out.len(), n * SLOTS_PER_PROC, "out must hold 3n slots");
        let relabel = node.relabel();
        // Image g's first slot as one integer in the election order;
        // elements left out of the election read as the maximum.
        let first = |g: usize| -> u128 {
            if !relabel && self.needs_relabel[g] {
                return u128::MAX;
            }
            let e = lane[self.src[g * n] as usize];
            u128::from(e.hash) << 32 | u128::from(e.idx)
        };
        let groups = self.group_len();
        let min = (0..groups).fold(u128::MAX, |m, g| m.min(first(g)));
        let mut best = None;
        for g in (0..groups).filter(|&g| first(g) == min) {
            if best.is_none_or(|b| self.cmp_images(lane, g, b).is_lt()) {
                best = Some(g);
            }
        }
        let best = best.expect("the identity always takes part");
        if best == usize::from(SIGMA_ID) {
            return None;
        }
        // The entries carry their value hashes, so the canonical row's
        // hash needs no lookup.
        let mut hash = 0u64;
        for j in 0..n {
            for (s, e) in self.image_slots(lane, best, j).into_iter().enumerate() {
                let slot = SLOTS_PER_PROC * j + s;
                out[slot] = e.idx;
                hash ^= slot_contrib(slot, e.hash);
            }
        }
        Some((hash, best as u16))
    }

    /// The entries image `g` puts in process `j`'s three slots.
    fn image_slots(&self, lane: &[SlotEntry], g: usize, j: usize) -> [SlotEntry; SLOTS_PER_PROC] {
        let src = self.src[g * self.n() + j] as usize;
        let block = src - src % LANE_PER_PROC;
        [lane[src], lane[block + 1], lane[block + 2]]
    }

    /// Images `a` and `b` compared slot by slot.
    fn cmp_images(&self, lane: &[SlotEntry], a: usize, b: usize) -> std::cmp::Ordering {
        (0..self.n())
            .map(|j| {
                self.image_slots(lane, a, j)
                    .cmp(&self.image_slots(lane, b, j))
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::SixColoring;
    use ftcolor_model::Execution;

    #[test]
    fn guard_rejects_non_cycles() {
        let path = Topology::path(4).unwrap();
        assert!(CycleSymmetry::for_topology(&path).is_none());
        let k4 = Topology::clique(4).unwrap();
        assert!(CycleSymmetry::for_topology(&k4).is_none());
    }

    #[test]
    fn dihedral_group_structure() {
        for n in [3usize, 4, 5, 6] {
            let topo = Topology::cycle(n).unwrap();
            let sym = CycleSymmetry::for_topology(&topo).unwrap();
            assert_eq!(sym.group_len(), 2 * n);
            // Every element composed with its inverse is the identity.
            for g in 0..sym.group_len() as u16 {
                assert_eq!(sym.compose(g, sym.invert(g)), SIGMA_ID, "n={n} g={g}");
                assert_eq!(sym.compose(sym.invert(g), g), SIGMA_ID, "n={n} g={g}");
                let ord = sym.order(g);
                assert!(ord >= 1 && 2 * n % ord == 0, "n={n} g={g} order={ord}");
                // Each perm really is a graph automorphism.
                let perm = sym.perm(g);
                for p in topo.nodes() {
                    for q in topo.neighbors(p) {
                        let (pp, qq) = (
                            ProcessId(perm[p.index()] as usize),
                            ProcessId(perm[q.index()] as usize),
                        );
                        assert!(topo.neighbors(pp).contains(&qq), "n={n} g={g}");
                    }
                }
            }
            // All 2n permutations are distinct.
            let mut seen: Vec<&[u32]> = Vec::new();
            for g in 0..sym.group_len() as u16 {
                assert!(!seen.contains(&sym.perm(g)), "duplicate perm n={n} g={g}");
                seen.push(sym.perm(g));
            }
        }
    }

    #[test]
    fn canonicalization_is_orbit_invariant() {
        // Encode a configuration, relabel it by every automorphism, and
        // check all orbit members canonicalize to the same representative.
        let topo = Topology::cycle(5).unwrap();
        let sym = CycleSymmetry::for_topology(&topo).unwrap();
        let codec: ConfigCodec<SixColoring> = ConfigCodec::new(5);
        let mut exec = Execution::new(&SixColoring, &topo, vec![4, 1, 3, 0, 2]);
        exec.step_with(&ActivationSet::of([ProcessId(0), ProcessId(2)]));
        exec.step_with(&ActivationSet::solo(ProcessId(1)));
        let key = codec.encode(&exec);
        let (canon, g0) = sym.canonicalize(&codec, &SixColoring, true, &key);

        for g in 0..sym.group_len() as u16 {
            let perm = sym.perm(g).to_vec();
            let mut packed = vec![0u32; key.packed.len()];
            for i in 0..5 {
                for s in 0..SLOTS_PER_PROC {
                    packed[perm[i] as usize * SLOTS_PER_PROC + s] =
                        key.packed[i * SLOTS_PER_PROC + s];
                }
            }
            let hash = codec.hash_packed(&packed);
            let relabeled = CfgKey {
                hash,
                packed: packed.into(),
            };
            let (c2, _) = sym.canonicalize(&codec, &SixColoring, true, &relabeled);
            assert_eq!(c2, canon, "orbit member g={g} has the same canonical form");
        }

        // The returned automorphism really maps key to canon.
        let perm = sym.perm(g0).to_vec();
        for (i, &pi) in perm.iter().enumerate() {
            for s in 0..SLOTS_PER_PROC {
                assert_eq!(
                    canon.packed[pi as usize * SLOTS_PER_PROC + s],
                    key.packed[i * SLOTS_PER_PROC + s]
                );
            }
        }
    }

    #[test]
    fn canonicalize_into_matches_the_wrapper_and_is_idempotent() {
        let topo = Topology::cycle(5).unwrap();
        let sym = CycleSymmetry::for_topology(&topo).unwrap();
        let codec: ConfigCodec<SixColoring> = ConfigCodec::new(5);
        let mut exec = Execution::new(&SixColoring, &topo, vec![4, 1, 3, 0, 2]);
        let mut node = LanedRow::new(5, true);
        for step in 0..6 {
            exec.step_with(&ActivationSet::solo(ProcessId(step % 5)));
            let key = codec.encode(&exec);
            let (canon, g) = sym.canonicalize(&codec, &SixColoring, true, &key);
            codec.entries_into(&SixColoring, &key.packed, key.hash, &mut node);
            let mut out = vec![u32::MAX; key.packed.len()];
            match sym.canonicalize_into(&node, &mut out) {
                None => assert_eq!((&canon, g), (&key, SIGMA_ID)),
                Some((hash, h)) => {
                    assert_eq!((&out[..], hash, h), (&canon.packed[..], canon.hash, g));
                    assert_eq!(codec.hash_packed(&out), hash);
                }
            }
            // The representative is its own representative: the identity
            // wins and `out` is left alone.
            codec.entries_into(&SixColoring, &canon.packed, canon.hash, &mut node);
            let mut again = vec![u32::MAX; key.packed.len()];
            assert_eq!(
                sym.canonicalize_into(&node, &mut again),
                None,
                "step {step}"
            );
            assert!(again.iter().all(|&v| v == u32::MAX), "step {step}");
        }
    }

    #[test]
    fn apply_to_set_relabels() {
        let topo = Topology::cycle(4).unwrap();
        let sym = CycleSymmetry::for_topology(&topo).unwrap();
        // Find the rotation mapping 0 → 1.
        let g = (0..sym.group_len() as u16)
            .find(|&g| sym.perm(g)[0] == 1 && sym.perm(g)[1] == 2)
            .unwrap();
        let set = ActivationSet::of([ProcessId(0), ProcessId(3)]);
        let mapped = sym.apply_to_set(g, &set);
        assert_eq!(mapped, ActivationSet::of([ProcessId(1), ProcessId(0)]));
        assert_eq!(sym.apply_to_set(g, &ActivationSet::All), ActivationSet::All);
    }
}
