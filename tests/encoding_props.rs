//! Property-based equivalence of the compact configuration encoding
//! ([`ftcolor::model::encode::ConfigCodec`]) with the semantic configuration
//! it replaces: two executions encode to equal [`CfgKey`]s **iff** their
//! (states, registers, outputs) tuples — the old checker's `ConfigKey` —
//! are equal. This is the exact-dedup soundness argument of the
//! exploration core, so it gets the widest net we can cast: random ring
//! sizes, random identifiers, random schedule prefixes, two algorithms
//! with different state shapes.
//!
//! The packed successor kernel ([`ConfigCodec::step_into`]) gets the
//! same treatment against the executor it replaces in the parallel
//! checker: five algorithms, cycles and a path, memo misses and hits —
//! and the entry lane it carries from successor to successor must equal
//! the lane [`ConfigCodec::entries_into`] computes afresh from each row.

use ftcolor::core::mis::LocalMaxMis;
use ftcolor::core::{FastFiveColoringPatched, FiveColoringPatched};
use ftcolor::model::encode::{CfgKey, ConfigCodec, LanedRow};
use ftcolor::model::inputs;
use ftcolor::prelude::*;
use proptest::prelude::*;
use std::hash::Hash;

/// A seeded LCG stream of 31-bit draws.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    }
}

/// The heap-tuple configuration key the codec replaced; equality on this
/// is the ground truth the packed encoding must reproduce.
type OldKey<A> = (
    Vec<<A as Algorithm>::State>,
    Vec<Option<<A as Algorithm>::Reg>>,
    Vec<Option<<A as Algorithm>::Output>>,
);

fn old_key<A: Algorithm>(exec: &Execution<'_, A>) -> OldKey<A> {
    let n = exec.topology().len();
    (
        (0..n).map(|i| exec.state(ProcessId(i)).clone()).collect(),
        (0..n)
            .map(|i| exec.register(ProcessId(i)).cloned())
            .collect(),
        exec.outputs().to_vec(),
    )
}

/// Drives `exec` through `len` pseudo-random steps derived from `seed`,
/// returning the codec key after every step (delta-encoded from the
/// previous key, exactly as the checker does).
fn random_walk_keys<A: Algorithm>(
    codec: &ConfigCodec<A>,
    exec: &mut Execution<'_, A>,
    len: usize,
    seed: u64,
) -> Vec<(CfgKey, OldKey<A>)>
where
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
    A::Output: Eq + std::hash::Hash,
{
    let n = exec.topology().len();
    let mut next = lcg(seed);
    let mut keys = vec![(codec.encode(exec), old_key(exec))];
    for _ in 0..len {
        if exec.all_returned() {
            break;
        }
        let set = match next() % 3 {
            0 => ActivationSet::All,
            1 => ActivationSet::solo(ProcessId(next() as usize % n)),
            _ => {
                let k = 1 + next() as usize % n;
                ActivationSet::of((0..k).map(|_| ProcessId(next() as usize % n)))
            }
        };
        let parent = keys.last().expect("nonempty").0.clone();
        let touched = exec.step_with(&set);
        keys.push((codec.encode_delta(&parent, exec, &touched), old_key(exec)));
    }
    keys
}

fn instance() -> impl Strategy<Value = (usize, u64, u64, u64)> {
    (3usize..8, 0u64..u64::MAX / 2, 0u64..10_000, 0u64..10_000)
}

/// `C3`–`C6` for `0..4`, `P4` for `4`.
fn kernel_topology(which: usize) -> Topology {
    match which {
        4 => Topology::path(4).unwrap(),
        k => Topology::cycle(3 + k).unwrap(),
    }
}

/// Walks up to `steps` random steps of `alg` on `topo` and, at every
/// configuration reached, checks [`ConfigCodec::step_into`] against
/// [`Execution::step_with`] + [`ConfigCodec::encode_delta`] on a random
/// activation subset, packed row and hash both. Subsets are drawn from
/// all processes with at least one working member, so returned members
/// must be ignored by both sides alike.
///
/// The kernel steps lanes without view swaps and — on cycles, where
/// symmetry reduction swaps views — with them, each lane carried from
/// one successor to the next as the checker carries it from a node to
/// its children. Each configuration is stepped twice, so the first call
/// may fill the memos and the second must be served from them. The
/// successor's row and hash must match the executor's, and its lane
/// must equal [`ConfigCodec::entries_into`] recomputed from the
/// successor row.
fn kernel_matches_executor<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    ids: Vec<A::Input>,
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let n = topo.len();
    let codec: ConfigCodec<A> = ConfigCodec::new(n);
    let mut exec = Execution::new(alg, topo, ids);
    let mut key = codec.encode(&exec);
    let mut lanes: Vec<LanedRow> = [false, true]
        .into_iter()
        .filter(|&relabel| !relabel || topo.is_cycle())
        .map(|relabel| {
            let mut lane = LanedRow::new(n, relabel);
            codec.entries_into(alg, &key.packed, key.hash, &mut lane);
            lane
        })
        .collect();
    let mut next = lcg(seed);
    for _ in 0..steps {
        let working = exec.working().to_vec();
        if working.is_empty() {
            break;
        }
        let forced = working[next() as usize % working.len()];
        let set = ActivationSet::of(
            (0..n)
                .filter(|_| next().is_multiple_of(2))
                .map(ProcessId)
                .chain([forced]),
        );
        let ActivationSet::Only(active) = &set else {
            unreachable!("ActivationSet::of is explicit");
        };
        let mut stepped = exec.clone();
        let touched = stepped.step_with(&set);
        let want = codec.encode_delta(&key, &stepped, &touched);
        for lane in &mut lanes {
            let relabel = lane.relabel();
            let mut got = LanedRow::new(n, relabel);
            for _pass in 0..2 {
                codec.step_into(alg, topo, lane, active, &mut got);
                prop_assert_eq!((got.row(), got.hash()), (&want.packed[..], want.hash));
            }
            let mut fresh = LanedRow::new(n, relabel);
            codec.entries_into(alg, got.row(), got.hash(), &mut fresh);
            prop_assert_eq!(&got, &fresh, "relabel={}", relabel);
            *lane = got;
        }
        exec = stepped;
        key = want;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compact-key equality ⇔ old tuple-key equality, across every pair
    /// of configurations on two independent random walks of the same
    /// instance (so colliding configurations genuinely occur).
    #[test]
    fn compact_equality_iff_tuple_equality((n, idseed, s1, s2) in instance()) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let codec: ConfigCodec<FiveColoring> = ConfigCodec::new(n);
        let mut a = Execution::new(&FiveColoring, &topo, ids.clone());
        let mut b = Execution::new(&FiveColoring, &topo, ids.clone());
        let ka = random_walk_keys(&codec, &mut a, 40, s1);
        let kb = random_walk_keys(&codec, &mut b, 40, s2);
        for (ck1, ok1) in ka.iter().chain(kb.iter()) {
            for (ck2, ok2) in ka.iter().chain(kb.iter()) {
                prop_assert_eq!(ck1 == ck2, ok1 == ok2,
                    "packed equality must coincide with semantic equality");
                if ck1 == ck2 {
                    // Equal keys must also agree on the precomputed hash
                    // (the visited-map invariant).
                    prop_assert_eq!(ck1.hash, ck2.hash);
                }
            }
        }
    }

    /// Incremental (delta) encoding along a walk equals full re-encoding
    /// at every configuration, hash included, for a second algorithm
    /// with a different state/register shape.
    #[test]
    fn delta_encoding_matches_full((n, idseed, s1, _s2) in instance()) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let codec: ConfigCodec<SixColoring> = ConfigCodec::new(n);
        let mut exec = Execution::new(&SixColoring, &topo, ids);
        let keys = random_walk_keys(&codec, &mut exec, 60, s1);
        for (delta_key, _) in &keys {
            // Every incrementally-maintained hash must equal the hash
            // recomputed from scratch over the packed buffer.
            prop_assert_eq!(codec.hash_packed(&delta_key.packed), delta_key.hash);
        }
        // The walk left `exec` at its final configuration: the last
        // delta-encoded key must equal a full re-encoding of it.
        let full = codec.encode(&exec);
        prop_assert_eq!(&keys.last().expect("nonempty").0, &full);
    }

    /// The packed successor kernel equals executor step + delta encode
    /// for Algorithms 1, 2, 2′ and 3′ and an MIS candidate, on `C3`–`C6`
    /// and `P4`, and the lane it carries equals the recomputed one.
    #[test]
    fn step_into_matches_executor(which in 0usize..5, idseed in 0u64..u64::MAX / 2, walk in 0u64..10_000) {
        let topo = kernel_topology(which);
        let n = topo.len();
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        kernel_matches_executor(&SixColoring, &topo, ids.clone(), walk, 40)?;
        kernel_matches_executor(&FiveColoring, &topo, ids.clone(), walk, 40)?;
        kernel_matches_executor(&FiveColoringPatched, &topo, ids.clone(), walk, 40)?;
        if topo.is_cycle() {
            // Algorithm 3′ assumes degree 2 everywhere.
            kernel_matches_executor(&FastFiveColoringPatched, &topo, ids.clone(), walk, 40)?;
        }
        kernel_matches_executor(&LocalMaxMis, &topo, ids, walk, 40)?;
    }

    /// `restore` round-trips: decoding a key into a scratch execution
    /// and re-encoding yields the identical key.
    #[test]
    fn restore_round_trips_through_random_walks((n, idseed, s1, _s2) in instance()) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let codec: ConfigCodec<FiveColoring> = ConfigCodec::new(n);
        let mut exec = Execution::new(&FiveColoring, &topo, ids.clone());
        let keys = random_walk_keys(&codec, &mut exec, 30, s1);
        let mut scratch = Execution::new(&FiveColoring, &topo, ids);
        for (key, old) in &keys {
            codec.restore(&mut scratch, key);
            prop_assert_eq!(&codec.encode(&scratch), key);
            prop_assert_eq!(&old_key(&scratch), old);
        }
    }
}
