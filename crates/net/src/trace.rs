//! Recorded delivery traces: the network's fault decisions, replayable.
//!
//! Every send in a simulation draws its fate (partition cut, drop,
//! delay, duplicate, reorder) from the seeded network RNG and records
//! the outcome as one [`TraceEntry`]. The resulting [`DeliveryTrace`]
//! is a complete transcript of the adversary: feeding it back through
//! [`crate::replay_net`] reproduces the run bit-for-bit without
//! consulting the RNG at all.
//!
//! Traces serialize to JSON (one entry per send, in send order) and
//! carry a cheap FNV-1a digest so tests can assert byte-identity
//! without diffing megabytes.

use serde::{Deserialize, Error, Serialize, Sink, Source, Token};
use std::fmt;

/// Kind tag of one traced send — the register-protocol subset of the
/// wire vocabulary (control frames never cross the fault-injected
/// network, so they never appear in a trace). Serializes as the same
/// snake_case string the wire uses, so trace JSON is unchanged from
/// when this field was a `String` — but recording a send is now a plain
/// store instead of a heap allocation, which matters at millions of
/// sends per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A register write announcement.
    Write,
    /// A snapshot read request.
    SnapshotReq,
    /// A snapshot read response.
    SnapshotResp,
}

impl FrameKind {
    /// The snake_case wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameKind::Write => "write",
            FrameKind::SnapshotReq => "snapshot_req",
            FrameKind::SnapshotResp => "snapshot_resp",
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for FrameKind {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self.as_str());
    }
}

impl Deserialize for FrameKind {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, S::Error> {
        match src.next()? {
            Token::Str => match src.str()? {
                "write" => Ok(FrameKind::Write),
                "snapshot_req" => Ok(FrameKind::SnapshotReq),
                "snapshot_resp" => Ok(FrameKind::SnapshotResp),
                other => Err(Error::custom(format!("unknown frame kind `{other}`")).into()),
            },
            head => src.invalid(head, |v| format!("expected a frame-kind string, got {v:?}")),
        }
    }
}

/// What the network decided to do with one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Delivered at logical time `at`.
    Deliver {
        /// Delivery time (logical ticks).
        at: u64,
    },
    /// Dropped by the per-link loss probability.
    Drop,
    /// Dropped because an active partition window cut the link.
    PartitionDrop,
}

/// One send and its fate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Send sequence number (0-based, global, in send order).
    pub seq: u64,
    /// Logical send time.
    pub t: u64,
    /// Sending node (`u32`, as on the wire; a trace naming a larger id
    /// fails to parse).
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Message kind tag (`write`, `snapshot_req`, `snapshot_resp`).
    pub kind: FrameKind,
    /// The network's decision for the primary copy.
    pub outcome: Outcome,
    /// Delivery time of a duplicated extra copy, if one was injected.
    pub dup_at: Option<u64>,
}

/// The full transcript of a simulated run's network decisions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DeliveryTrace {
    /// All sends, in send order (`entries[i].seq == i`).
    pub entries: Vec<TraceEntry>,
}

impl DeliveryTrace {
    /// Number of recorded sends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of messages actually delivered (primary copies).
    pub fn delivered(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Deliver { .. }))
            .count()
    }

    /// Number of messages lost to drops or partition cuts.
    pub fn lost(&self) -> usize {
        self.entries.len() - self.delivered()
    }

    /// The trace as one line of JSON (the canonical byte form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("traces always encode")
    }

    /// FNV-1a digest of the canonical JSON form — a compact fingerprint
    /// for byte-identity assertions. The JSON is rendered and hashed one
    /// entry at a time, so the whole trace's text never exists at once.
    pub fn digest(&self) -> u64 {
        let mut entry = String::new();
        let mut h = fnv1a_extend(FNV_BASIS, b"{\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                h = fnv1a_extend(h, b",");
            }
            entry.clear();
            serde_json::append_to_string(e, &mut entry);
            h = fnv1a_extend(h, entry.as_bytes());
        }
        fnv1a_extend(h, b"]}")
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_BASIS, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeliveryTrace {
        DeliveryTrace {
            entries: vec![
                TraceEntry {
                    seq: 0,
                    t: 0,
                    from: 0,
                    to: 0,
                    kind: FrameKind::Write,
                    outcome: Outcome::Deliver { at: 1 },
                    dup_at: None,
                },
                TraceEntry {
                    seq: 1,
                    t: 1,
                    from: 0,
                    to: 1,
                    kind: FrameKind::SnapshotReq,
                    outcome: Outcome::Drop,
                    dup_at: Some(9),
                },
                TraceEntry {
                    seq: 2,
                    t: 3,
                    from: 2,
                    to: 1,
                    kind: FrameKind::SnapshotResp,
                    outcome: Outcome::PartitionDrop,
                    dup_at: None,
                },
            ],
        }
    }

    #[test]
    fn trace_round_trips_and_digest_is_stable() {
        let t = sample();
        let json = t.to_json();
        let back: DeliveryTrace = serde_json::from_str(&json).expect("trace parses");
        assert_eq!(back, t);
        assert_eq!(back.digest(), t.digest());
        assert_eq!(back.to_json(), json, "canonical form is byte-stable");
    }

    #[test]
    fn entries_keep_their_size() {
        assert_eq!(std::mem::size_of::<TraceEntry>(), 64);
    }

    #[test]
    fn node_ids_past_u32_are_refused_not_truncated() {
        let json = sample().to_json();
        let wide = json.replacen("\"from\":2", "\"from\":4294967298", 1);
        assert_ne!(wide, json, "the sample names node 2 as a sender");
        let err = serde_json::from_str::<DeliveryTrace>(&wide).expect_err("2^32 + 2 is no u32");
        assert!(err.to_string().contains("4294967298"), "{err}");
    }

    #[test]
    fn counts_split_delivered_and_lost() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.lost(), 2);
    }

    #[test]
    fn digest_hashes_the_canonical_json() {
        let mut t = sample();
        assert_eq!(t.digest(), fnv1a(t.to_json().as_bytes()));
        t.entries.clear();
        assert_eq!(t.digest(), fnv1a(t.to_json().as_bytes()));
    }

    #[test]
    fn digest_distinguishes_different_traces() {
        let a = sample();
        let mut b = sample();
        b.entries[1].outcome = Outcome::Deliver { at: 4 };
        assert_ne!(a.digest(), b.digest());
    }
}
