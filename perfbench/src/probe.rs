//! Probes: single public calls into one layer, timed one at a time on
//! inputs drawn from the workload's own instance and seed. Probes run
//! only in traced mode, after the measured call.
//!
//! A per-call probe reports the mean of the middle 80% of its call
//! times minus the median cost of reading the clock twice, so that
//! sub-microsecond calls are neither dominated by the timer nor
//! rounded to its resolution.

use crate::median;
use ftcolor_checker::CycleSymmetry;
use ftcolor_model::encode::ConfigCodec;
use ftcolor_model::{ActivationSet, Algorithm, Execution, ProcessId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::Hash;
use std::hint::black_box;
use std::time::Instant;

/// Median cost, in nanoseconds, of an empty `Instant` start/elapsed
/// pair — subtracted from every per-call sample.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..4096)
        .map(|_| {
            let t0 = Instant::now();
            black_box(());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Per-call nanoseconds of the model and checker layers on one
/// instance, from a seeded random walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkProbe {
    /// `Execution::step_with` on a random non-empty subset of the
    /// working processes.
    pub step_ns: f64,
    /// `ConfigCodec::encode_delta` of the step's successor.
    pub encode_delta_ns: f64,
    /// `ConfigCodec::restore_procs` undoing the step.
    pub restore_ns: f64,
    /// `CycleSymmetry::canonicalize` of the successor key (0 when not
    /// asked for).
    pub canonicalize_ns: f64,
}

/// Walks `steps` random steps of `alg` on `topo`, split evenly over the
/// identifier assignments `instances`, timing each layer call the
/// checker makes per successor: step, encode, canonicalize (when
/// `symmetry`), undo. A walk restarts from its initial configuration
/// whenever every process has returned.
///
/// # Panics
///
/// Panics if `symmetry` is set and `topo` is not a cycle.
pub fn walk<A>(
    alg: &A,
    topo: &Topology,
    instances: &[Vec<A::Input>],
    seed: u64,
    steps: usize,
    symmetry: bool,
) -> WalkProbe
where
    A: Algorithm,
    A::Input: Clone,
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    let overhead = timer_overhead_ns();
    let sym = symmetry.then(|| CycleSymmetry::for_topology(topo).expect("symmetry needs a cycle"));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0be5_7a1c_0de5_eed5);
    let (mut step, mut enc, mut restore, mut canon) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let ns = |t0: Instant| t0.elapsed().as_nanos() as f64 - overhead;
    for ids in instances {
        let codec = ConfigCodec::<A>::new(topo.len());
        let mut exec = Execution::new(alg, topo, ids.clone());
        let root = codec.encode(&exec);
        let mut key = root.clone();
        for _ in 0..steps / instances.len().max(1) {
            if exec.working().is_empty() {
                codec.restore(&mut exec, &root);
                key = root.clone();
            }
            let working = exec.working();
            let mut subset: Vec<ProcessId> = working
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if subset.is_empty() {
                subset.push(working[rng.gen_range(0..working.len())]);
            }
            let set = ActivationSet::Only(subset);

            let t0 = Instant::now();
            let active = exec.step_with(&set);
            step.push(ns(t0));

            let t0 = Instant::now();
            let child = codec.encode_delta(&key, &exec, &active);
            enc.push(ns(t0));

            if let Some(sym) = &sym {
                let t0 = Instant::now();
                black_box(sym.canonicalize(&codec, alg, true, &child));
                canon.push(ns(t0));
            }

            let t0 = Instant::now();
            codec.restore_procs(&mut exec, &key.packed, &active);
            restore.push(ns(t0));

            // Walk on: re-apply the successor without timing it.
            codec.restore_procs(&mut exec, &child.packed, &active);
            key = child;
        }
    }
    WalkProbe {
        step_ns: trimmed_mean(&mut step),
        encode_delta_ns: trimmed_mean(&mut enc),
        restore_ns: trimmed_mean(&mut restore),
        canonicalize_ns: trimmed_mean(&mut canon),
    }
}

/// Mean of the middle 80% of a sample (sorts it in place); 0 for an
/// empty sample.
pub fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 10;
    let middle = &values[cut..values.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Times `batches` batches of `per_batch` calls of `f` and returns the
/// median per-call nanoseconds — for calls too small to time singly and
/// that need no set-up between them.
pub fn batched(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::FiveColoringPatched;

    #[test]
    fn walk_times_every_layer_call() {
        let topo = Topology::cycle(5).expect("cycle");
        let ids = [vec![0, 1, 2, 3, 4], vec![4, 0, 3, 1, 2]];
        let p = walk(&FiveColoringPatched, &topo, &ids, 3, 500, true);
        assert!(p.step_ns > 0.0, "{p:?}");
        assert!(p.encode_delta_ns > 0.0, "{p:?}");
        assert!(p.restore_ns > 0.0, "{p:?}");
        assert!(p.canonicalize_ns > 0.0, "{p:?}");
        let q = walk(&FiveColoringPatched, &topo, &ids[..1], 3, 100, false);
        assert_eq!(q.canonicalize_ns, 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_tails() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[9] = 1e9;
        assert_eq!(trimmed_mean(&mut v), 5.5);
        assert_eq!(trimmed_mean(&mut []), 0.0);
    }

    #[test]
    fn batched_reports_per_call_time() {
        let mut acc = 0u64;
        let ns = batched(5, 1000, |i| acc = black_box(acc.wrapping_add(i as u64)));
        assert!(ns >= 0.0);
    }
}
