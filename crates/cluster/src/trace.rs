//! Recorded cluster traces: the routed-frame transcript of a live run.
//!
//! A live cluster run is *not* seeded-deterministic — node processes
//! race on wall-clock timers, OS scheduling, and pipe buffering — so
//! reproducibility comes from recording instead of reseeding. The
//! orchestrator's router is the single point every frame passes
//! through; it journals, in its own processing order:
//!
//! * [`ClusterEntry::Send`] — a frame surfaced at the router (read off a
//!   node's stdout, or a response the orchestrator synthesized from a
//!   dead node's register cache), together with the fate the shared
//!   fault-plan interpreter drew for it;
//! * [`ClusterEntry::Deliver`] — a frame written to a node's stdin (or
//!   accepted by a dead node's surviving register server); and
//! * [`ClusterEntry::Crash`] — a SIGKILL executed from the fault plan.
//!
//! The transcript, plus the run's recorded outcome, is a
//! [`ClusterTrace`]. [`crate::replay_trace`] re-runs it against
//! deterministic in-process replicas of the node state machine and
//! fails loudly if the journal could not have been produced by honest
//! nodes — making every committed fixture a regression test for the
//! node core, the JSON frame format, and the router, with no processes
//! spawned.

use ftcolor_net::{FaultPlan, Frame};
use serde::{Deserialize, Serialize, Value};

/// Schema tag embedded in every serialized trace, bumped on breaking
/// format changes so stale fixtures fail loudly instead of misparsing.
pub const CLUSTER_TRACE_SCHEMA: &str = "ftcolor-cluster-trace/1";

/// The fate the router assigned to one surfaced frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SendFate {
    /// Queued for delivery (after the drawn delay; `dup` marks whether
    /// an extra duplicate copy was queued too).
    Delivered,
    /// Lost to the per-link drop probability.
    Dropped,
    /// Lost to an active partition window.
    Cut,
    /// Control-plane frame (`init_ok`, `decide`): consumed by the
    /// orchestrator, never fault-injected.
    Control,
}

/// One journaled router action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterEntry {
    /// A frame surfaced at the router and was assigned a fate.
    Send {
        /// Journal sequence number (0-based, gap-free).
        seq: u64,
        /// Milliseconds since run start when the router processed it.
        ms: u64,
        /// The fate drawn (or `Control` for orchestrator-bound frames).
        fate: SendFate,
        /// Whether an extra duplicate copy was queued.
        dup: bool,
        /// The frame, verbatim.
        frame: Frame,
    },
    /// A frame was handed to its destination.
    Deliver {
        /// Journal sequence number.
        seq: u64,
        /// Milliseconds since run start.
        ms: u64,
        /// The frame, verbatim.
        frame: Frame,
    },
    /// A node was SIGKILLed by the fault plan.
    Crash {
        /// Journal sequence number.
        seq: u64,
        /// Milliseconds since run start.
        ms: u64,
        /// The killed node.
        node: usize,
    },
}

impl ClusterEntry {
    /// The journal sequence number of this entry.
    pub fn seq(&self) -> u64 {
        match self {
            ClusterEntry::Send { seq, .. }
            | ClusterEntry::Deliver { seq, .. }
            | ClusterEntry::Crash { seq, .. } => *seq,
        }
    }
}

/// A complete recorded cluster run: configuration, journal, outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTrace {
    /// Format tag; must equal [`CLUSTER_TRACE_SCHEMA`].
    pub schema: String,
    /// Registry name of the algorithm (`alg1`, `alg2p`, …).
    pub alg: String,
    /// Ring size.
    pub n: usize,
    /// The orchestrator's fault-draw seed.
    pub seed: u64,
    /// Per-node input identifiers.
    pub ids: Vec<u64>,
    /// Wall milliseconds per fault-plan logical tick.
    pub tick_ms: u64,
    /// The fault plan that drove the run.
    pub plan: FaultPlan,
    /// The router journal, in router-processing order.
    pub entries: Vec<ClusterEntry>,
    /// Encoded outputs the orchestrator observed (`decide` frames);
    /// `Null` for nodes that crashed or stalled first.
    pub outputs: Vec<Value>,
    /// Nodes SIGKILLed by the plan.
    pub crashed: Vec<usize>,
    /// Live nodes that never decided before the run stopped.
    pub stalled: Vec<usize>,
}

impl ClusterTrace {
    /// The trace as one line of JSON (the canonical byte form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("cluster traces always encode")
    }

    /// The trace as indented JSON (the committed-fixture form).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("cluster traces always encode")
    }

    /// Parses a serialized trace, rejecting unknown schema tags.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let trace: ClusterTrace =
            serde_json::from_str(text).map_err(|e| format!("cluster trace: {e}"))?;
        if trace.schema != CLUSTER_TRACE_SCHEMA {
            return Err(format!(
                "cluster trace schema `{}` (expected `{CLUSTER_TRACE_SCHEMA}`)",
                trace.schema
            ));
        }
        Ok(trace)
    }

    /// FNV-1a digest of the canonical JSON form.
    pub fn digest(&self) -> u64 {
        ftcolor_net::trace::fnv1a(self.to_json().as_bytes())
    }

    /// Number of journal entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_net::{Body, SnapshotReq};

    fn sample() -> ClusterTrace {
        ClusterTrace {
            schema: CLUSTER_TRACE_SCHEMA.to_string(),
            alg: "alg2p".into(),
            n: 3,
            seed: 7,
            ids: vec![5, 9, 2],
            tick_ms: 5,
            plan: FaultPlan::default().with_crash(1, 4),
            entries: vec![
                ClusterEntry::Send {
                    seq: 0,
                    ms: 2,
                    fate: SendFate::Delivered,
                    dup: false,
                    frame: Frame {
                        src: 0,
                        dest: 1,
                        body: Body::SnapshotReq(SnapshotReq { round: 0 }),
                    },
                },
                ClusterEntry::Crash {
                    seq: 1,
                    ms: 20,
                    node: 1,
                },
            ],
            outputs: vec![
                Value::Number(serde::Number::PosInt(3)),
                Value::Null,
                Value::Null,
            ],
            crashed: vec![1],
            stalled: vec![2],
        }
    }

    #[test]
    fn trace_round_trips_and_digest_is_stable() {
        let t = sample();
        let json = t.to_json();
        let back = ClusterTrace::from_json(&json).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "canonical form is byte-stable");
        assert_eq!(back.digest(), t.digest());
        let pretty = t.to_json_pretty();
        assert_eq!(ClusterTrace::from_json(&pretty).expect("pretty parses"), t);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut t = sample();
        t.schema = "ftcolor-cluster-trace/99".into();
        let err = ClusterTrace::from_json(&t.to_json()).expect_err("schema gate");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn seq_accessor_covers_all_variants() {
        let t = sample();
        let seqs: Vec<u64> = t.entries.iter().map(ClusterEntry::seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
