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
//! Maelstrom-style node loop would exchange. In a [`Body`] a register
//! payload is a [`serde::Value`] tree, the form the cluster's pipe
//! frames and journals carry. The register subset also exists typed, as
//! [`Msg`]: the round machine and the discrete-event simulator move the
//! algorithm's register type itself, and the binary codec encodes and
//! decodes it with no tree in between. Both forms have one JSON and one
//! binary encoding, so traces from either substrate parse with the same
//! decoder.

use serde::{Deserialize, Error, Serialize, Sink, Source, Token, Value};

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
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Write {
    /// The writer's 0-based round number.
    pub round: u64,
    /// The encoded register value.
    pub value: Value,
}

/// `snapshot_req`: send me your register's current value (the reader is
/// in round `round`; the round number keys the response to the right
/// snapshot phase).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SnapshotReq {
    /// The requesting reader's 0-based round number.
    pub round: u64,
}

/// `snapshot_resp`: the register's current value. `value` is `null` and
/// `stamp` is `0` when the register was never written (the owner has not
/// woken up yet); otherwise `stamp` is the writer's round plus one.
#[derive(Debug, Clone, PartialEq, Deserialize)]
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

    /// The register-protocol message this body is, borrowed; `None` for
    /// control-plane frames.
    pub fn msg(&self) -> Option<Msg<&Value>> {
        Some(match self {
            Body::Write(w) => Msg::Write {
                round: w.round,
                value: &w.value,
            },
            Body::SnapshotReq(r) => Msg::SnapshotReq { round: r.round },
            Body::SnapshotResp(r) => Msg::SnapshotResp {
                round: r.round,
                value: r.value.as_ref(),
                stamp: r.stamp,
            },
            Body::Init(_) | Body::InitOk(_) | Body::Decide(_) => return None,
        })
    }
}

/// A register-protocol message (`write`, `snapshot_req`,
/// `snapshot_resp`) whose register has type `P`: what the round machine
/// ([`crate::protocol`]) sends, with `P` a borrowed register, and
/// receives. The simulators encode and decode it straight between bytes
/// and the algorithm's register type; [`Msg::to_body`] and
/// [`Body::msg`] convert at a `Value`-tree boundary such as the
/// cluster's pipes. Its JSON form is its [`Body`]'s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Msg<P> {
    /// The sender's register now holds `value`, written in its round
    /// `round` (see [`Write`]).
    Write {
        /// The writer's 0-based round number.
        round: u64,
        /// The register value.
        value: P,
    },
    /// Send me your register's current value (see [`SnapshotReq`]).
    SnapshotReq {
        /// The requesting reader's 0-based round number.
        round: u64,
    },
    /// The register's current value (see [`SnapshotResp`]).
    SnapshotResp {
        /// Echo of the requesting reader's round number.
        round: u64,
        /// The register value, or `None` if never written.
        value: Option<P>,
        /// Freshness stamp: writer round + 1, or `0` for never-written.
        stamp: u64,
    },
}

impl<P> Msg<P> {
    /// The message's kind, as a delivery trace records it.
    pub fn kind(&self) -> crate::trace::FrameKind {
        use crate::trace::FrameKind;
        match self {
            Msg::Write { .. } => FrameKind::Write,
            Msg::SnapshotReq { .. } => FrameKind::SnapshotReq,
            Msg::SnapshotResp { .. } => FrameKind::SnapshotResp,
        }
    }

    /// The same message with its register converted by `f`.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Msg<Q> {
        let Ok(msg) = self.try_map(|v| Ok::<_, std::convert::Infallible>(f(v)));
        msg
    }

    /// The same message with its register converted by `f`, which may
    /// fail.
    ///
    /// # Errors
    ///
    /// `f`'s error.
    pub fn try_map<Q, E>(self, f: impl FnOnce(P) -> Result<Q, E>) -> Result<Msg<Q>, E> {
        Ok(match self {
            Msg::Write { round, value } => Msg::Write {
                round,
                value: f(value)?,
            },
            Msg::SnapshotReq { round } => Msg::SnapshotReq { round },
            Msg::SnapshotResp {
                round,
                value,
                stamp,
            } => Msg::SnapshotResp {
                round,
                value: value.map(f).transpose()?,
                stamp,
            },
        })
    }
}

impl Msg<Value> {
    /// The message as a [`Body`], its `Value` tree moved in.
    pub fn into_body(self) -> Body {
        match self {
            Msg::Write { round, value } => Body::Write(Write { round, value }),
            Msg::SnapshotReq { round } => Body::SnapshotReq(SnapshotReq { round }),
            Msg::SnapshotResp {
                round,
                value,
                stamp,
            } => Body::SnapshotResp(SnapshotResp {
                round,
                value,
                stamp,
            }),
        }
    }
}

impl<P: Serialize> Msg<P> {
    /// The message as a [`Body`], its register as a `Value` tree.
    pub fn to_body(&self) -> Body {
        match self {
            Msg::Write { round, value } => Body::Write(Write {
                round: *round,
                value: value.to_value(),
            }),
            Msg::SnapshotReq { round } => Body::SnapshotReq(SnapshotReq { round: *round }),
            Msg::SnapshotResp {
                round,
                value,
                stamp,
            } => Body::SnapshotResp(SnapshotResp {
                round: *round,
                value: value.as_ref().map(Serialize::to_value),
                stamp: *stamp,
            }),
        }
    }
}

impl<P: Serialize> Serialize for Msg<P> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(1);
        sink.key(self.kind().as_str());
        match self {
            Msg::Write { round, value } => {
                sink.begin_object(2);
                sink.key("round");
                round.serialize(sink);
                sink.key("value");
                value.serialize(sink);
            }
            Msg::SnapshotReq { round } => {
                sink.begin_object(1);
                sink.key("round");
                round.serialize(sink);
            }
            Msg::SnapshotResp {
                round,
                value,
                stamp,
            } => {
                sink.begin_object(3);
                sink.key("round");
                round.serialize(sink);
                sink.key("value");
                value.serialize(sink);
                sink.key("stamp");
                stamp.serialize(sink);
            }
        }
        sink.end();
        sink.end();
    }
}

impl Serialize for Body {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        fn tagged<S: Sink + ?Sized>(sink: &mut S, tag: &str, inner: &impl Serialize) {
            sink.begin_object(1);
            sink.key(tag);
            inner.serialize(sink);
            sink.end();
        }
        match self {
            Body::Init(m) => tagged(sink, "init", m),
            Body::InitOk(m) => tagged(sink, "init_ok", m),
            Body::Decide(m) => tagged(sink, "decide", m),
            Body::Write(_) | Body::SnapshotReq(_) | Body::SnapshotResp(_) => {
                if let Some(msg) = self.msg() {
                    msg.serialize(sink);
                }
            }
        }
    }
}

impl Deserialize for Body {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, S::Error> {
        let n = match src.next()? {
            Token::Object(n) => n,
            head => {
                return src.invalid(head, |v| {
                    format!("expected an externally tagged message body, got {v:?}")
                })
            }
        };
        if n != 1 {
            return Err(
                Error::custom(format!("expected exactly one message tag, got {n} keys")).into(),
            );
        }
        let body = match src.key()? {
            "write" => Body::Write(Write::deserialize(src)?),
            "snapshot_req" => Body::SnapshotReq(SnapshotReq::deserialize(src)?),
            "snapshot_resp" => Body::SnapshotResp(SnapshotResp::deserialize(src)?),
            "init" => Body::Init(Init::deserialize(src)?),
            "init_ok" => Body::InitOk(InitOk::deserialize(src)?),
            "decide" => Body::Decide(Decide::deserialize(src)?),
            other => return Err(Error::custom(format!("unknown message tag `{other}`")).into()),
        };
        src.end();
        Ok(body)
    }
}

/// The frame envelope — the single place the JSON shape of a frame is
/// defined. [`Frame`]'s `Serialize` impl and the parts-based encoder
/// below both write through it, so a frame serialized whole and a frame
/// serialized from borrowed parts are byte-identical by construction.
struct FrameParts<'a, B> {
    src: usize,
    dest: usize,
    body: &'a B,
}

impl<B: Serialize> Serialize for FrameParts<'_, B> {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(3);
        sink.key("src");
        self.src.serialize(sink);
        sink.key("dest");
        self.dest.serialize(sink);
        sink.key("body");
        self.body.serialize(sink);
        sink.end();
    }
}

impl Serialize for Frame {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        let (src, dest, body) = (self.src, self.dest, &self.body);
        FrameParts { src, dest, body }.serialize(sink);
    }
}

/// Appends the JSON wire encoding of a frame assembled from parts — the
/// envelope by value, the body borrowed: a [`Body`], or a [`Msg`] whose
/// typed register is serialized in place. The simulators' send paths
/// use this to serialize a broadcast once per destination without
/// cloning the register it carries.
pub(crate) fn encode_json_parts_into<B: Serialize>(
    src: usize,
    dest: usize,
    body: &B,
    buf: &mut Vec<u8>,
) {
    let mut s = String::from_utf8(std::mem::take(buf)).expect("frame buffers hold UTF-8");
    serde_json::append_to_string(&FrameParts { src, dest, body }, &mut s);
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
