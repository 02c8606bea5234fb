//! Compact self-describing binary frame codec with buffer pooling.
//!
//! This is the simulator's only wire format: every frame in flight in
//! `netsim` is encoded and decoded here. The JSON frame format
//! ([`Frame::encode`](crate::msg::Frame::encode)) is the cluster's pipe
//! format, and the ground truth the binary encoding is tested against. A
//! delivery trace holds no frame bytes either way, so the wire format
//! never shows in a trace. A binary frame is:
//!
//! ```text
//! version : u8            (WIRE_VERSION, currently 1)
//! tag     : u8            (0x01 write .. 0x06 decide, see the table)
//! src     : u32 LE        (usize::MAX, the orchestrator, <-> u32::MAX)
//! dest    : u32 LE
//! body    : tag-specific fields
//! ```
//!
//! | tag    | kind            | body layout                                        |
//! |--------|-----------------|----------------------------------------------------|
//! | `0x01` | `write`         | round u32, value                                   |
//! | `0x02` | `snapshot_req`  | round u32                                          |
//! | `0x03` | `snapshot_resp` | round u32, stamp u32, presence u8, \[value\]       |
//! | `0x04` | `init`          | node u32, n u32, input uv, rto_ms uv, pace_ms uv, alg str, neighbor count uv + u32 each |
//! | `0x05` | `init_ok`       | node u32                                           |
//! | `0x06` | `decide`        | round u32, output value                            |
//!
//! `uv` is an unsigned LEB128 varint; `str` is `uv` byte length followed
//! by UTF-8 bytes. A register (`value` above) is written in the serde
//! shim's data model, one-byte type tag per node: `0x00` null, `0x01`
//! false, `0x02` true, `0x03` posint (uv), `0x04` negint (i64 bits as
//! uv), `0x05` float (f64 bits, 8 bytes LE), `0x06` string (str), `0x07`
//! array (uv count, then the items), `0x08` object (uv count of pairs,
//! each a str key and a value). Containers nest at most
//! [`MAX_VALUE_DEPTH`] deep.
//!
//! The value format has one encoder, a [`serde::Sink`], and one decoder,
//! a [`serde::Source`]: any `Serialize` type writes itself into the
//! bytes and any `Deserialize` type reads itself back. The simulators'
//! path, [`encode_msg_into`] / [`decode_msg`], moves the algorithm's
//! register type itself, with no `Value` tree in between; the
//! [`Frame`] path ([`encode_frame_into`] / [`decode_frame`]) is the same
//! code with `serde::Value` as the register type. Either path writes the
//! same bytes for the same register.
//!
//! [`WirePool`] recycles encode buffers so the steady-state encode path
//! performs zero heap allocations; [`WireStats`] counts frames, bytes,
//! and pool hits so codec behavior is observable in run summaries, not
//! just timed.

use crate::msg::{Body, Decide, Frame, Init, InitOk, Msg};
use serde::{Deserialize, Serialize, Sink, Source, Token, Value};
use std::fmt;

/// Version byte carried by every binary frame. Bump on layout changes.
pub const WIRE_VERSION: u8 = 1;

/// Longest line a cluster pipe reader accepts: a hostile stream with no
/// newline must not make the reader allocate gigabytes.
pub const MAX_FRAME_BYTES: u32 = 1 << 26;

/// Deepest container nesting a decoded value may have. The decoder
/// recurses once per level, so a hostile frame of nested arrays well
/// under [`MAX_FRAME_BYTES`] would otherwise overflow the stack.
pub const MAX_VALUE_DEPTH: usize = 128;

const TAG_WRITE: u8 = 0x01;
const TAG_SNAPSHOT_REQ: u8 = 0x02;
const TAG_SNAPSHOT_RESP: u8 = 0x03;
const TAG_INIT: u8 = 0x04;
const TAG_INIT_OK: u8 = 0x05;
const TAG_DECIDE: u8 = 0x06;

const VAL_NULL: u8 = 0x00;
const VAL_FALSE: u8 = 0x01;
const VAL_TRUE: u8 = 0x02;
const VAL_POSINT: u8 = 0x03;
const VAL_NEGINT: u8 = 0x04;
const VAL_FLOAT: u8 = 0x05;
const VAL_STRING: u8 = 0x06;
const VAL_ARRAY: u8 = 0x07;
const VAL_OBJECT: u8 = 0x08;

/// The simulator's wire encoding: the binary layout documented in this
/// module, its only one. Kept only for the benchmark's report
/// (`perfbench` names `Codec::Binary` and `Codec::name`); it goes with
/// the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// The binary layout documented in this module.
    #[default]
    Binary,
}

impl Codec {
    /// The summary name of this codec.
    pub fn name(self) -> &'static str {
        "binary"
    }
}

/// Typed decode failure for binary frames. Mirrors the torn-JSON-line
/// handling: a reader drops the frame instead of crashing.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Input ended before the advertised layout did.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown frame tag.
    BadTag(u8),
    /// Unknown value type tag inside a payload tree.
    BadValueTag(u8),
    /// `snapshot_resp` presence byte was neither 0 nor 1.
    BadPresence(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A varint ran past 10 bytes (no valid u64 does).
    VarintOverflow,
    /// The frame decoded cleanly but bytes remained after it.
    TrailingBytes(usize),
    /// A value nested arrays/objects deeper than [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// A well-formed register that does not decode into the type asked
    /// for (the typed path, [`decode_msg`], only).
    Register(serde::Error),
}

impl From<serde::Error> for WireError {
    fn from(e: serde::Error) -> Self {
        WireError::Register(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated binary frame"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v:#04x}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t:#04x}"),
            WireError::BadPresence(b) => write!(f, "bad presence byte {b:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::TooDeep => write!(f, "value nested deeper than {MAX_VALUE_DEPTH}"),
            WireError::Register(e) => write!(f, "register does not decode: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Frame/byte counters for one run of a substrate, reported in JSON
/// summaries so codec regressions are observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Frames serialized to bytes.
    pub frames_encoded: u64,
    /// Frames parsed back from bytes.
    pub frames_decoded: u64,
    /// Total bytes that crossed the wire, including stream framing.
    pub bytes_on_wire: u64,
    /// Encode-buffer requests served from the free list.
    pub pool_hits: u64,
    /// Encode-buffer requests that had to allocate.
    pub pool_misses: u64,
}

/// A free-list of encode buffers: `acquire` hands back a cleared
/// `Vec<u8>` (recycled when possible), `release` returns it. On the
/// steady-state encode path every request is a pool hit, so encoding
/// allocates nothing.
#[derive(Debug, Default)]
pub struct WirePool {
    free: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl WirePool {
    /// Takes a cleared buffer, recycling a released one when available.
    pub fn acquire(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the free list for reuse.
    pub fn release(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }

    /// Requests served from the free list so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that had to allocate a fresh buffer.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

fn node_to_u32(id: usize, what: &str) -> u32 {
    if id == usize::MAX {
        u32::MAX
    } else {
        u32::try_from(id).unwrap_or_else(|_| panic!("{what} {id} does not fit in u32 on the wire"))
    }
}

fn node_from_u32(raw: u32) -> usize {
    if raw == u32::MAX {
        usize::MAX
    } else {
        raw as usize
    }
}

fn round_to_u32(round: u64, what: &str) -> u32 {
    u32::try_from(round)
        .unwrap_or_else(|_| panic!("{what} {round} does not fit in u32 on the wire"))
}

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

#[inline]
fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// The value format's encoder: a [`Sink`] appending tagged values onto a
/// byte buffer. Its methods, and the decoder's, are `#[inline]`: a
/// register's (de)serializer is compiled in the crate that defines the
/// register, and without the hint every byte written or read is a call.
struct Encoder<'a>(&'a mut Vec<u8>);

impl Sink for Encoder<'_> {
    #[inline]
    fn null(&mut self) {
        self.0.push(VAL_NULL);
    }
    #[inline]
    fn bool(&mut self, v: bool) {
        self.0.push(if v { VAL_TRUE } else { VAL_FALSE });
    }
    #[inline]
    fn uint(&mut self, v: u64) {
        self.0.push(VAL_POSINT);
        put_uvarint(self.0, v);
    }
    #[inline]
    fn int(&mut self, v: i64) {
        self.0.push(VAL_NEGINT);
        put_uvarint(self.0, v as u64);
    }
    #[inline]
    fn float(&mut self, v: f64) {
        self.0.push(VAL_FLOAT);
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    #[inline]
    fn str(&mut self, v: &str) {
        self.0.push(VAL_STRING);
        put_str(self.0, v);
    }
    #[inline]
    fn begin_array(&mut self, len: usize) {
        self.0.push(VAL_ARRAY);
        put_uvarint(self.0, len as u64);
    }
    #[inline]
    fn begin_object(&mut self, len: usize) {
        self.0.push(VAL_OBJECT);
        put_uvarint(self.0, len as u64);
    }
    #[inline]
    fn key(&mut self, k: &str) {
        put_str(self.0, k);
    }
    #[inline]
    fn end(&mut self) {}
}

/// Appends `v` in the value format: a register straight from its type,
/// or a [`Value`] tree.
fn put_value<V: Serialize + ?Sized>(buf: &mut Vec<u8>, v: &V) {
    v.serialize(&mut Encoder(buf));
}

fn put_header(buf: &mut Vec<u8>, tag: u8, src: usize, dest: usize) {
    buf.push(WIRE_VERSION);
    buf.push(tag);
    put_u32(buf, node_to_u32(src, "src node id"));
    put_u32(buf, node_to_u32(dest, "dest node id"));
}

/// Appends the binary encoding of `frame` onto `buf` (no length prefix).
/// A register-protocol frame is its [`Msg`], encoded by
/// [`encode_msg_into`] with the register as a `Value` tree.
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    let Frame { src, dest, body } = frame;
    let (src, dest) = (*src, *dest);
    if let Some(msg) = body.msg() {
        return encode_msg_into(src, dest, &msg, buf);
    }
    match body {
        Body::Init(m) => {
            put_header(buf, TAG_INIT, src, dest);
            put_u32(buf, node_to_u32(m.node, "init node id"));
            put_u32(buf, node_to_u32(m.n, "ring size"));
            put_uvarint(buf, m.input);
            put_uvarint(buf, m.rto_ms);
            put_uvarint(buf, m.pace_ms);
            put_str(buf, &m.alg);
            put_uvarint(buf, m.neighbors.len() as u64);
            for &nb in &m.neighbors {
                put_u32(buf, node_to_u32(nb, "neighbor node id"));
            }
        }
        Body::InitOk(m) => {
            put_header(buf, TAG_INIT_OK, src, dest);
            put_u32(buf, node_to_u32(m.node, "init_ok node id"));
        }
        Body::Decide(m) => {
            put_header(buf, TAG_DECIDE, src, dest);
            put_u32(buf, round_to_u32(m.round, "decide round"));
            put_value(buf, &m.output);
        }
        Body::Write(_) | Body::SnapshotReq(_) | Body::SnapshotResp(_) => {}
    }
}

/// Appends the binary encoding of a register-protocol message from
/// `src` to `dest`, its register serialized straight from its type: the
/// simulators' send path. A broadcast encodes one borrowed register per
/// destination, never cloning it.
pub fn encode_msg_into<P: Serialize>(src: usize, dest: usize, msg: &Msg<P>, buf: &mut Vec<u8>) {
    match msg {
        Msg::Write { round, value } => {
            put_header(buf, TAG_WRITE, src, dest);
            put_u32(buf, round_to_u32(*round, "write round"));
            put_value(buf, value);
        }
        Msg::SnapshotReq { round } => {
            put_header(buf, TAG_SNAPSHOT_REQ, src, dest);
            put_u32(buf, round_to_u32(*round, "snapshot_req round"));
        }
        Msg::SnapshotResp {
            round,
            value,
            stamp,
        } => {
            put_header(buf, TAG_SNAPSHOT_RESP, src, dest);
            put_u32(buf, round_to_u32(*round, "snapshot_resp round"));
            put_u32(buf, round_to_u32(*stamp, "snapshot_resp stamp"));
            match value {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    put_value(buf, v);
                }
            }
        }
    }
}

/// The value format's decoder: a [`Source`] over a frame's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers enclosing the position.
    depth: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, WireError> {
        let byte = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[inline]
    fn uvarint(&mut self) -> Result<u64, WireError> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        self.pos -= 1;
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    #[inline]
    fn text(&mut self) -> Result<&'a str, WireError> {
        let len = self.uvarint()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// The frame header: version, tag, source, destination.
    fn header(bytes: &'a [u8]) -> Result<(Self, u8, usize, usize), WireError> {
        let mut r = Reader {
            bytes,
            pos: 0,
            depth: 0,
        };
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = r.u8()?;
        let src = node_from_u32(r.u32()?);
        let dest = node_from_u32(r.u32()?);
        Ok((r, tag, src, dest))
    }

    /// The body of a register-protocol frame tagged `tag`, its register
    /// read as `P`; `None` for any other tag.
    fn msg<P: Deserialize>(&mut self, tag: u8) -> Result<Option<Msg<P>>, WireError> {
        Ok(Some(match tag {
            TAG_WRITE => Msg::Write {
                round: u64::from(self.u32()?),
                value: P::deserialize(self)?,
            },
            TAG_SNAPSHOT_REQ => Msg::SnapshotReq {
                round: u64::from(self.u32()?),
            },
            TAG_SNAPSHOT_RESP => {
                let round = u64::from(self.u32()?);
                let stamp = u64::from(self.u32()?);
                let value = match self.u8()? {
                    0 => None,
                    1 => Some(P::deserialize(self)?),
                    other => return Err(WireError::BadPresence(other)),
                };
                Msg::SnapshotResp {
                    round,
                    value,
                    stamp,
                }
            }
            _ => return Ok(None),
        }))
    }

    /// Refuses bytes left after the frame.
    fn finish(&self) -> Result<(), WireError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

impl<'a> Source for Reader<'a> {
    type Error = WireError;
    type Mark = (usize, usize);

    #[inline]
    fn next(&mut self) -> Result<Token, WireError> {
        let tag = self.u8()?;
        if matches!(tag, VAL_ARRAY | VAL_OBJECT) {
            if self.depth >= MAX_VALUE_DEPTH {
                return Err(WireError::TooDeep);
            }
            self.depth += 1;
        }
        Ok(match tag {
            VAL_NULL => Token::Null,
            VAL_FALSE => Token::Bool(false),
            VAL_TRUE => Token::Bool(true),
            VAL_POSINT => Token::Uint(self.uvarint()?),
            VAL_NEGINT => Token::Int(self.uvarint()? as i64),
            VAL_FLOAT => {
                let b = self.take(8)?;
                let bits = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                Token::Float(f64::from_bits(bits))
            }
            VAL_STRING => Token::Str,
            VAL_ARRAY => Token::Array(self.uvarint()? as usize),
            VAL_OBJECT => Token::Object(self.uvarint()? as usize),
            other => return Err(WireError::BadValueTag(other)),
        })
    }

    #[inline]
    fn str(&mut self) -> Result<&str, WireError> {
        self.text()
    }

    #[inline]
    fn key(&mut self) -> Result<&str, WireError> {
        self.text()
    }

    /// Compares the raw bytes: a key equal to `name` is valid UTF-8, and
    /// any other is left for [`Source::key`] to read and check.
    #[inline]
    fn key_is(&mut self, name: &str) -> Result<bool, WireError> {
        let name = name.as_bytes();
        let start = self.pos + 1;
        // A byte loop: field names are a few bytes, too short for a
        // `memcmp` call to pay.
        let hit = name.len() < 0x80
            && self.bytes.get(self.pos) == Some(&(name.len() as u8))
            && self
                .bytes
                .get(start..start + name.len())
                .is_some_and(|key| key.iter().zip(name).all(|(a, b)| a == b));
        if hit {
            self.pos = start + name.len();
        }
        Ok(hit)
    }

    #[inline]
    fn end(&mut self) {
        self.depth -= 1;
    }

    #[inline]
    fn take_null(&mut self) -> Result<bool, WireError> {
        let null = *self.bytes.get(self.pos).ok_or(WireError::Truncated)? == VAL_NULL;
        self.pos += usize::from(null);
        Ok(null)
    }

    #[inline]
    fn mark(&mut self) -> Result<(usize, usize), WireError> {
        let mark = (self.pos, self.depth);
        self.skip()?;
        Ok(mark)
    }

    #[inline]
    fn at(&self, (pos, depth): (usize, usize)) -> Self {
        Reader {
            bytes: self.bytes,
            pos,
            depth,
        }
    }
}

/// Decodes one binary frame from `bytes`, rejecting torn, truncated, or
/// trailing-garbage input with a typed [`WireError`].
///
/// # Errors
///
/// Any malformed input — never panics, mirroring how torn JSON lines are
/// dropped by the readers.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let (mut r, tag, src, dest) = Reader::header(bytes)?;
    let body = match r.msg::<Value>(tag)? {
        Some(msg) => msg.into_body(),
        None => match tag {
            TAG_INIT => {
                let node = node_from_u32(r.u32()?);
                let n = node_from_u32(r.u32()?);
                let input = r.uvarint()?;
                let rto_ms = r.uvarint()?;
                let pace_ms = r.uvarint()?;
                let alg = r.text()?.to_owned();
                let count = r.uvarint()? as usize;
                let mut neighbors = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    neighbors.push(node_from_u32(r.u32()?));
                }
                Body::Init(Init {
                    node,
                    n,
                    alg,
                    input,
                    neighbors,
                    rto_ms,
                    pace_ms,
                })
            }
            TAG_INIT_OK => Body::InitOk(InitOk {
                node: node_from_u32(r.u32()?),
            }),
            TAG_DECIDE => Body::Decide(Decide {
                round: u64::from(r.u32()?),
                output: Value::deserialize(&mut r)?,
            }),
            other => return Err(WireError::BadTag(other)),
        },
    };
    r.finish()?;
    Ok(Frame { src, dest, body })
}

/// Decodes one binary register-protocol frame from `bytes` straight into
/// `(src, dest, message)`, its register read as `R` with no `Value` tree
/// in between: the simulators' receive path. On bytes [`decode_frame`]
/// reads, the message equals that frame's with its register decoded by
/// `R::from_value`.
///
/// # Errors
///
/// Malformed input as for [`decode_frame`]; a control-plane frame
/// (`init`, `init_ok`, `decide`) as [`WireError::BadTag`]; a register
/// that does not decode as `R` as [`WireError::Register`]. Never panics.
pub fn decode_msg<R: Deserialize>(bytes: &[u8]) -> Result<(usize, usize, Msg<R>), WireError> {
    let (mut r, tag, src, dest) = Reader::header(bytes)?;
    let msg = r.msg(tag)?.ok_or(WireError::BadTag(tag))?;
    r.finish()?;
    Ok((src, dest, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{SnapshotReq, SnapshotResp, Write as WriteMsg, ORCHESTRATOR};
    use serde::Number;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                src: 0,
                dest: 1,
                body: Body::Write(WriteMsg {
                    round: 3,
                    value: Value::Array(vec![
                        Value::Number(Number::PosInt(7)),
                        Value::Number(Number::NegInt(-4)),
                        Value::Number(Number::Float(1.5)),
                        Value::String("héllo \"quoted\"\n".into()),
                        Value::Null,
                        Value::Bool(true),
                        Value::Object(vec![("k".into(), Value::Bool(false))]),
                    ]),
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
            Frame {
                src: 1,
                dest: 2,
                body: Body::SnapshotResp(SnapshotResp {
                    round: 2,
                    value: Some(Value::Number(Number::PosInt(300))),
                    stamp: 3,
                }),
            },
            Frame {
                src: ORCHESTRATOR,
                dest: 0,
                body: Body::Init(Init {
                    node: 0,
                    n: 5,
                    alg: "alg2p".into(),
                    input: u64::MAX,
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
                    output: Value::Number(Number::PosInt(2)),
                }),
            },
        ]
    }

    #[test]
    fn binary_round_trip_is_identity() {
        for f in sample_frames() {
            let mut buf = Vec::new();
            encode_frame_into(&f, &mut buf);
            let back = decode_frame(&buf).expect("decodes");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn truncations_are_rejected_not_panics() {
        for f in sample_frames() {
            let mut buf = Vec::new();
            encode_frame_into(&f, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_frame(&buf[..cut]).is_err(),
                    "prefix of len {cut} must not decode"
                );
            }
            let mut extended = buf.clone();
            extended.push(0);
            assert_eq!(
                decode_frame(&extended),
                Err(WireError::TrailingBytes(1)),
                "trailing byte must be rejected"
            );
        }
    }

    #[test]
    fn bad_version_and_tag_are_typed_errors() {
        let mut buf = Vec::new();
        encode_frame_into(&sample_frames()[1], &mut buf);
        let mut v = buf.clone();
        v[0] = 9;
        assert_eq!(decode_frame(&v), Err(WireError::BadVersion(9)));
        let mut t = buf.clone();
        t[1] = 0x7f;
        assert_eq!(decode_frame(&t), Err(WireError::BadTag(0x7f)));
    }

    /// A `write` frame whose value is `depth` nested one-element arrays.
    fn nested_write(depth: usize) -> Vec<u8> {
        let mut buf = vec![WIRE_VERSION, TAG_WRITE];
        buf.extend_from_slice(&[0; 12]); // src, dest, round
        for _ in 0..depth {
            buf.extend_from_slice(&[VAL_ARRAY, 1]);
        }
        buf.push(VAL_NULL);
        buf
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        assert!(decode_frame(&nested_write(MAX_VALUE_DEPTH)).is_ok());
        assert_eq!(
            decode_frame(&nested_write(MAX_VALUE_DEPTH + 1)),
            Err(WireError::TooDeep)
        );
        // About 2 MB, well under the frame cap: without the depth bound
        // the decoder recursed once per level and overflowed the stack.
        let hostile = nested_write(1 << 20);
        assert!(hostile.len() < MAX_FRAME_BYTES as usize);
        assert_eq!(decode_frame(&hostile), Err(WireError::TooDeep));
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut pool = WirePool::default();
        let a = pool.acquire();
        assert_eq!(pool.misses(), 1);
        pool.release(a);
        let b = pool.acquire();
        assert_eq!(pool.hits(), 1);
        assert!(b.is_empty(), "recycled buffers come back cleared");
    }
}
