//! The wire protocol shared by both message-passing substrates.
//!
//! Every message crossing the simulated network (`ftcolor-net`) or the
//! real-process cluster (`ftcolor-cluster`) is a [`Frame`] — source,
//! destination, and a [`Body`]. The register protocol is three messages:
//!
//! * `write` — a process announcing the new value of its own SWMR
//!   register. Sent to its co-located register server (loopback) to
//!   apply the write, and broadcast to its neighbors so their mirrors
//!   stay warm.
//! * `snapshot_req` — a process asking a neighbor's register server for
//!   the register's current value (one per neighbor per round,
//!   retransmitted until answered).
//! * `snapshot_resp` — the register server's answer: the current value
//!   and its write stamp (`0` = never written).
//!
//! The cluster substrate adds a control plane spoken between the
//! orchestrator (address [`ORCHESTRATOR`]) and its spawned node
//! processes, on the same line-delimited frame format:
//!
//! * `init` — orchestrator → node: the node's identity, ring size,
//!   algorithm name, input identifier, neighbor list, and timer config;
//!   always the first line a node reads on stdin.
//! * `init_ok` — node → orchestrator: the node is up and entering its
//!   first round.
//! * `decide` — node → orchestrator: the algorithm returned; carries the
//!   encoded output and the round it was decided in. The node keeps
//!   serving `snapshot_req`s afterwards (its register server outlives
//!   the algorithm).
//!
//! Bodies are externally tagged with the snake_case names above, so the
//! frames read naturally in delivery traces and match what a real
//! Maelstrom-style node loop would exchange. Register payloads travel as
//! [`serde::Value`] trees: the substrates are generic over the
//! algorithm's register type and encode/decode it at the network
//! boundary. The discrete-event simulator only ever puts the register
//! subset on its wire; the codec is one vocabulary so traces from either
//! substrate parse with the same decoder.

use serde::{Deserialize, Error, Serialize, Value};

/// The orchestrator's frame address in the cluster substrate. Control
/// frames (`init`, `init_ok`, `decide`) travel between a node and this
/// address; they are part of the run harness, not the network, and are
/// never subjected to fault injection.
pub const ORCHESTRATOR: usize = usize::MAX;

/// One message in flight: source node, destination node, payload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Frame {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dest: usize,
    /// The protocol payload.
    pub body: Body,
}

/// The protocol messages: the register subset (externally tagged as
/// `write`, `snapshot_req`, `snapshot_resp`) spoken on both
/// message-passing substrates, and the cluster control plane (`init`,
/// `init_ok`, `decide`) spoken between the orchestrator and real node
/// processes.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A register write announcement.
    Write(Write),
    /// A snapshot read request.
    SnapshotReq(SnapshotReq),
    /// A snapshot read response.
    SnapshotResp(SnapshotResp),
    /// Orchestrator → node: configuration, first line on stdin.
    Init(Init),
    /// Node → orchestrator: up and running.
    InitOk(InitOk),
    /// Node → orchestrator: the algorithm returned this output.
    Decide(Decide),
}

/// `write`: the sender's register now holds `value` (written in the
/// sender's round `round`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Write {
    /// The writer's 0-based round number.
    pub round: u64,
    /// The encoded register value.
    pub value: Value,
}

/// `snapshot_req`: send me your register's current value (the reader is
/// in round `round`; the round number keys the response to the right
/// snapshot phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReq {
    /// The requesting reader's 0-based round number.
    pub round: u64,
}

/// `snapshot_resp`: the register's current value. `value` is `null` and
/// `stamp` is `0` when the register was never written (the owner has not
/// woken up yet); otherwise `stamp` is the writer's round plus one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotResp {
    /// Echo of the requesting reader's round number.
    pub round: u64,
    /// The register value, or `None` if never written.
    pub value: Option<Value>,
    /// Freshness stamp: writer round + 1, or `0` for never-written.
    pub stamp: u64,
}

/// `init`: the orchestrator hands a freshly spawned node its identity
/// and configuration. The node drops every frame that arrives before
/// it, so a node that never receives it stays silent forever (which is
/// exactly how the orchestrator's wedge-timeout machinery is exercised
/// in tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Init {
    /// The node's 0-based ring position (its frame address).
    pub node: usize,
    /// Ring size.
    pub n: usize,
    /// Registry name of the algorithm to run (`alg1`, `alg2p`, …).
    pub alg: String,
    /// The node's input identifier (the paper's `X_p`).
    pub input: u64,
    /// Neighbor node indices, in the topology's neighbor order.
    pub neighbors: Vec<usize>,
    /// Retransmit timeout for unanswered `snapshot_req`s, in wall-clock
    /// milliseconds.
    pub rto_ms: u64,
    /// Pause before starting each round, in milliseconds (0 = run at
    /// full speed). Used to stretch runs so mid-run fault injection has
    /// a window to land in.
    pub pace_ms: u64,
}

/// `init_ok`: the node parsed its `init` and is entering round 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitOk {
    /// Echo of the node's ring position.
    pub node: usize,
}

/// `decide`: the node's algorithm returned. The encoded output travels
/// as a [`serde::Value`] tree, decoded by the orchestrator against the
/// algorithm's typed output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decide {
    /// The 0-based round the decision was committed in.
    pub round: u64,
    /// The encoded `Algorithm::Output`.
    pub output: Value,
}

impl Body {
    /// The [`FrameKind`](crate::trace::FrameKind) recorded for this
    /// message in a delivery trace, or `None` for control-plane frames
    /// (which never cross the fault-injected network and are therefore
    /// never traced).
    pub fn trace_kind(&self) -> Option<crate::trace::FrameKind> {
        use crate::trace::FrameKind;
        match self {
            Body::Write(_) => Some(FrameKind::Write),
            Body::SnapshotReq(_) => Some(FrameKind::SnapshotReq),
            Body::SnapshotResp(_) => Some(FrameKind::SnapshotResp),
            _ => None,
        }
    }

    /// The snake_case tag of this message type (as it appears on the
    /// wire and in delivery traces).
    pub fn kind(&self) -> &'static str {
        match self {
            Body::Write(_) => "write",
            Body::SnapshotReq(_) => "snapshot_req",
            Body::SnapshotResp(_) => "snapshot_resp",
            Body::Init(_) => "init",
            Body::InitOk(_) => "init_ok",
            Body::Decide(_) => "decide",
        }
    }
}

impl Serialize for Body {
    fn to_value(&self) -> Value {
        let (tag, inner) = match self {
            Body::Write(m) => ("write", m.to_value()),
            Body::SnapshotReq(m) => ("snapshot_req", m.to_value()),
            Body::SnapshotResp(m) => ("snapshot_resp", m.to_value()),
            Body::Init(m) => ("init", m.to_value()),
            Body::InitOk(m) => ("init_ok", m.to_value()),
            Body::Decide(m) => ("decide", m.to_value()),
        };
        Value::Object(vec![(tag.to_string(), inner)])
    }
}

impl Deserialize for Body {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(pairs) = v else {
            return Err(Error::custom(format!(
                "expected an externally tagged message body, got {v:?}"
            )));
        };
        let [(tag, inner)] = pairs.as_slice() else {
            return Err(Error::custom(format!(
                "expected exactly one message tag, got {} keys",
                pairs.len()
            )));
        };
        match tag.as_str() {
            "write" => Ok(Body::Write(Write::from_value(inner)?)),
            "snapshot_req" => Ok(Body::SnapshotReq(SnapshotReq::from_value(inner)?)),
            "snapshot_resp" => Ok(Body::SnapshotResp(SnapshotResp::from_value(inner)?)),
            "init" => Ok(Body::Init(Init::from_value(inner)?)),
            "init_ok" => Ok(Body::InitOk(InitOk::from_value(inner)?)),
            "decide" => Ok(Body::Decide(Decide::from_value(inner)?)),
            other => Err(Error::custom(format!("unknown message tag `{other}`"))),
        }
    }
}

/// The frame envelope as a [`Value`] tree — the single place the JSON
/// shape of a frame is defined. [`Frame`]'s `Serialize` impl and the
/// parts-based encoder below both delegate here, so a frame serialized
/// whole and a frame serialized from borrowed parts are byte-identical
/// by construction.
fn frame_to_value(src: usize, dest: usize, body: &Body) -> Value {
    Value::Object(vec![
        ("src".to_string(), src.to_value()),
        ("dest".to_string(), dest.to_value()),
        ("body".to_string(), body.to_value()),
    ])
}

impl Serialize for Frame {
    fn to_value(&self) -> Value {
        frame_to_value(self.src, self.dest, &self.body)
    }
}

/// Appends the JSON wire encoding of a frame assembled from parts — the
/// envelope by value, the body borrowed. The simulators' send paths use
/// this to serialize a broadcast body once per destination without
/// cloning the register value it carries.
pub(crate) fn encode_json_parts_into(src: usize, dest: usize, body: &Body, buf: &mut Vec<u8>) {
    struct FrameRef<'a> {
        src: usize,
        dest: usize,
        body: &'a Body,
    }
    // A borrowing `Serialize` impl (rather than passing the built
    // `Value` itself) so the tree is materialized exactly once —
    // `Value`'s own `to_value` is a deep clone.
    impl Serialize for FrameRef<'_> {
        fn to_value(&self) -> Value {
            frame_to_value(self.src, self.dest, self.body)
        }
    }
    let mut s = String::from_utf8(std::mem::take(buf)).expect("frame buffers hold UTF-8");
    serde_json::append_to_string(&FrameRef { src, dest, body }, &mut s);
    *buf = s.into_bytes();
}

impl Frame {
    /// Encodes the frame as one line of JSON (the wire format).
    pub fn encode(&self) -> String {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        String::from_utf8(buf).expect("JSON frames are UTF-8")
    }

    /// Appends the frame's JSON encoding onto a caller-supplied buffer —
    /// the pooled entry point: no allocation when `buf` has capacity.
    /// Existing bytes in `buf` must be valid UTF-8 (pooled buffers are
    /// handed out cleared, so the check is O(existing length) = O(1) on
    /// the steady-state path).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_json_parts_into(self.src, self.dest, &self.body, buf);
    }

    /// Decodes a frame from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error for malformed input.
    pub fn decode(text: &str) -> Result<Self, Error> {
        serde_json::from_str(text).map_err(|e| Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_json() {
        let frames = [
            Frame {
                src: 0,
                dest: 1,
                body: Body::Write(Write {
                    round: 3,
                    value: Value::Array(vec![Value::Number(serde::Number::PosInt(7))]),
                }),
            },
            Frame {
                src: 2,
                dest: 0,
                body: Body::SnapshotReq(SnapshotReq { round: 9 }),
            },
            Frame {
                src: 1,
                dest: 2,
                body: Body::SnapshotResp(SnapshotResp {
                    round: 9,
                    value: None,
                    stamp: 0,
                }),
            },
        ];
        for f in frames {
            let text = f.encode();
            let back = Frame::decode(&text).expect("decodes");
            assert_eq!(back, f);
            assert_eq!(back.encode(), text, "re-encode is byte-identical");
        }
    }

    #[test]
    fn control_frames_round_trip_through_json() {
        let frames = [
            Frame {
                src: ORCHESTRATOR,
                dest: 0,
                body: Body::Init(Init {
                    node: 0,
                    n: 5,
                    alg: "alg2p".into(),
                    input: 42,
                    neighbors: vec![4, 1],
                    rto_ms: 25,
                    pace_ms: 0,
                }),
            },
            Frame {
                src: 0,
                dest: ORCHESTRATOR,
                body: Body::InitOk(InitOk { node: 0 }),
            },
            Frame {
                src: 3,
                dest: ORCHESTRATOR,
                body: Body::Decide(Decide {
                    round: 7,
                    output: Value::Number(serde::Number::PosInt(2)),
                }),
            },
        ];
        for f in frames {
            let text = f.encode();
            let back = Frame::decode(&text).expect("control frames decode");
            assert_eq!(back, f);
            assert_eq!(back.encode(), text, "re-encode is byte-identical");
        }
    }

    #[test]
    fn tags_are_snake_case_on_the_wire() {
        let f = Frame {
            src: 0,
            dest: 1,
            body: Body::SnapshotReq(SnapshotReq { round: 0 }),
        };
        assert!(f.encode().contains("\"snapshot_req\""));
    }

    #[test]
    fn deeply_nested_lines_are_refused_not_a_stack_overflow() {
        let line = Frame {
            src: 0,
            dest: 1,
            body: Body::Write(Write {
                round: 1,
                value: Value::Null,
            }),
        }
        .encode();
        let nest = |depth: usize| {
            line.replace(
                "null",
                &format!("{}null{}", "[".repeat(depth), "]".repeat(depth)),
            )
        };
        assert!(Frame::decode(&nest(8)).is_ok());
        // About 2 MB on one `ftcolor node` stdin line.
        let err = Frame::decode(&nest(1 << 20)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}
