//! Registry-algorithm pins for the configuration codec.
//!
//! The codec lives in [`ftcolor_model::encode`] (it moved there when the
//! batch executor adopted the packed representation as its execution hot
//! path), but `ftcolor-model` cannot dev-depend on `ftcolor-core`, so
//! the tests that exercise it against a *real* registry algorithm live
//! here in the checker — the codec's heaviest consumer.

use ftcolor_core::SixColoring;
use ftcolor_model::encode::ConfigCodec;
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::{Execution, ProcessId, Topology};

#[test]
fn encode_is_stable_and_delta_matches_full() {
    let topo = Topology::cycle(4).unwrap();
    let codec: ConfigCodec<SixColoring> = ConfigCodec::new(4);
    let mut exec = Execution::new(&SixColoring, &topo, vec![3, 1, 4, 1]);
    let root = codec.encode(&exec);
    assert_eq!(root, codec.encode(&exec), "encoding is deterministic");

    let mut parent = root.clone();
    for step in 0..6 {
        let set = ActivationSet::solo(ProcessId(step % 4));
        let touched = exec.step_with(&set);
        let delta = codec.encode_delta(&parent, &exec, &touched);
        let full = codec.encode(&exec);
        assert_eq!(delta, full, "step {step}: delta and full encodings agree");
        assert_eq!(
            delta.hash, full.hash,
            "step {step}: incremental hash agrees with full hash"
        );
        assert_eq!(codec.hash_packed(&full.packed), full.hash);
        parent = delta;
    }
}

#[test]
fn restore_round_trips() {
    let topo = Topology::cycle(4).unwrap();
    let codec: ConfigCodec<SixColoring> = ConfigCodec::new(4);
    let mut exec = Execution::new(&SixColoring, &topo, vec![7, 2, 9, 5]);
    let root = codec.encode(&exec);
    for _ in 0..5 {
        exec.step_with(&ActivationSet::All);
    }
    let later = codec.encode(&exec);
    assert_ne!(root, later);

    // Restore the root configuration into the stepped execution.
    let mut scratch = Execution::new(&SixColoring, &topo, vec![7, 2, 9, 5]);
    for _ in 0..5 {
        scratch.step_with(&ActivationSet::All);
    }
    codec.restore(&mut scratch, &root);
    assert_eq!(codec.encode(&scratch), root);
    assert_eq!(scratch.working().len(), 4, "everyone working again");

    // And back to the later one via restore_procs on all slots.
    let all: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    codec.restore_procs(&mut scratch, &later.packed, &all);
    assert_eq!(codec.encode(&scratch), later);
}

#[test]
fn step_undo_is_identity() {
    let topo = Topology::cycle(3).unwrap();
    let codec: ConfigCodec<SixColoring> = ConfigCodec::new(3);
    let mut exec = Execution::new(&SixColoring, &topo, vec![0, 1, 2]);
    exec.step_with(&ActivationSet::All);
    let parent = codec.encode(&exec);

    let touched = exec.step_with(&ActivationSet::solo(ProcessId(1)));
    codec.restore_procs(&mut exec, &parent.packed, &touched);
    assert_eq!(codec.encode(&exec), parent, "undo restores the parent");
}
