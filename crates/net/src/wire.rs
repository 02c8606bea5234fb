//! Compact self-describing binary frame codec with buffer pooling.
//!
//! The JSON wire format ([`Frame::encode`](crate::msg::Frame::encode))
//! stays the default because delivery traces and cluster journals should
//! read naturally; this module is the fast path for when the wire itself
//! is the bottleneck. A binary frame is:
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
//! by UTF-8 bytes. Register payloads ([`serde::Value`] trees) use a
//! one-byte type tag per node: `0x00` null, `0x01` false, `0x02` true,
//! `0x03` posint (uv), `0x04` negint (i64 bits as uv), `0x05` float
//! (f64 bits, 8 bytes LE), `0x06` string, `0x07` array (uv count), `0x08`
//! object (uv count of key/value pairs). Encoding goes directly between
//! bytes and the typed [`Frame`] — no intermediate `Value` tree is built
//! for the frame envelope, which is where the JSON path spends most of
//! its time.
//!
//! On a byte stream (the cluster's child-process pipes), frames are
//! length-prefixed with a `u32` LE payload length — see [`write_framed`]
//! / [`read_framed`] / [`append_framed`].
//!
//! [`WirePool`] recycles encode buffers so the steady-state encode path
//! performs zero heap allocations; [`WireStats`] counts frames, bytes,
//! and pool hits so codec behavior is observable in run summaries, not
//! just timed.

use crate::msg::{Body, Decide, Frame, Init, InitOk, SnapshotReq, SnapshotResp};
use serde::{Deserialize, Number, Serialize, Value};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// Version byte carried by every binary frame. Bump on layout changes.
pub const WIRE_VERSION: u8 = 1;

/// Sanity cap on a length-prefixed frame (a torn or hostile prefix must
/// not make the reader allocate gigabytes).
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

/// Which encoding frames use on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// One line of JSON per frame — the default; traces read naturally.
    #[default]
    Json,
    /// The binary layout documented in this module.
    Binary,
}

impl Codec {
    /// Parses a `--codec` argument value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "json" => Some(Codec::Json),
            "binary" => Some(Codec::Binary),
            _ => None,
        }
    }

    /// The CLI/summary name of this codec.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }

    /// Writes `frames` as stream records (JSON lines, or length-prefixed
    /// binary records: the cluster's pipe framing), built in one pooled
    /// buffer and flushed with a single write. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// The writer's error, e.g. a closed pipe.
    pub fn write_records(
        self,
        frames: &[Frame],
        pool: &mut WirePool,
        out: &mut impl Write,
    ) -> io::Result<usize> {
        if frames.is_empty() {
            return Ok(0);
        }
        let mut buf = pool.acquire();
        for frame in frames {
            match self {
                Codec::Binary => append_framed(frame, &mut buf),
                Codec::Json => {
                    frame.encode_into(&mut buf);
                    buf.push(b'\n');
                }
            }
        }
        let written = out.write_all(&buf).and_then(|()| out.flush());
        let bytes = buf.len();
        pool.release(buf);
        written.map(|()| bytes)
    }

    /// Reads stream records from `r`, handing each payload (a line
    /// without its newline, or a record without its prefix) to `sink`,
    /// until EOF, a torn record, a payload longer than
    /// [`MAX_FRAME_BYTES`], or `sink` returns `false`. A line that is not
    /// UTF-8 is still one payload.
    pub fn read_records(self, mut r: impl BufRead, mut sink: impl FnMut(Vec<u8>) -> bool) {
        let mut buf = Vec::new();
        loop {
            let more = match self {
                Codec::Binary => matches!(read_framed(&mut r, &mut buf), Ok(true)),
                Codec::Json => {
                    buf.clear();
                    let cap = u64::from(MAX_FRAME_BYTES) + 1;
                    let got = (&mut r).take(cap).read_until(b'\n', &mut buf).unwrap_or(0) > 0;
                    if buf.last() == Some(&b'\n') {
                        buf.pop();
                    }
                    got && buf.len() <= MAX_FRAME_BYTES as usize
                }
            };
            if !more || !sink(std::mem::take(&mut buf)) {
                return;
            }
        }
    }

    /// Decodes one record payload; `Ok(None)` for a blank JSON line.
    ///
    /// # Errors
    ///
    /// The payload is not a frame in this codec.
    pub fn decode_record(self, payload: &[u8]) -> Result<Option<Frame>, String> {
        match self {
            Codec::Binary => decode_frame(payload).map(Some).map_err(|e| e.to_string()),
            Codec::Json => {
                let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
                match text.trim() {
                    "" => Ok(None),
                    line => Frame::decode(line).map(Some).map_err(|e| e.to_string()),
                }
            }
        }
    }
}

/// Typed decode failure for binary frames. Mirrors the torn-JSON-line
/// handling: a reader drops the frame instead of crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

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

fn uvarint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Bool(false) => buf.push(VAL_FALSE),
        Value::Bool(true) => buf.push(VAL_TRUE),
        Value::Number(Number::PosInt(n)) => {
            buf.push(VAL_POSINT);
            put_uvarint(buf, *n);
        }
        Value::Number(Number::NegInt(n)) => {
            buf.push(VAL_NEGINT);
            put_uvarint(buf, *n as u64);
        }
        Value::Number(Number::Float(f)) => {
            buf.push(VAL_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            buf.push(VAL_STRING);
            put_str(buf, s);
        }
        Value::Array(items) => {
            buf.push(VAL_ARRAY);
            put_uvarint(buf, items.len() as u64);
            for item in items {
                put_value(buf, item);
            }
        }
        Value::Object(pairs) => {
            buf.push(VAL_OBJECT);
            put_uvarint(buf, pairs.len() as u64);
            for (k, val) in pairs {
                put_str(buf, k);
                put_value(buf, val);
            }
        }
    }
}

fn value_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Number(Number::PosInt(n)) => 1 + uvarint_len(*n),
        Value::Number(Number::NegInt(n)) => 1 + uvarint_len(*n as u64),
        Value::Number(Number::Float(_)) => 1 + 8,
        Value::String(s) => 1 + uvarint_len(s.len() as u64) + s.len(),
        Value::Array(items) => {
            1 + uvarint_len(items.len() as u64) + items.iter().map(value_len).sum::<usize>()
        }
        Value::Object(pairs) => {
            1 + uvarint_len(pairs.len() as u64)
                + pairs
                    .iter()
                    .map(|(k, val)| uvarint_len(k.len() as u64) + k.len() + value_len(val))
                    .sum::<usize>()
        }
    }
}

/// Appends the binary encoding of `frame` onto `buf` (no length prefix).
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    encode_parts_into(frame.src, frame.dest, &frame.body, buf);
}

/// [`encode_frame_into`] for a frame assembled from parts: the envelope
/// by value, the body borrowed. The simulators' send paths use this to
/// broadcast one body to many destinations without cloning the register
/// value per neighbor.
pub fn encode_parts_into(src: usize, dest: usize, body: &Body, buf: &mut Vec<u8>) {
    buf.push(WIRE_VERSION);
    buf.push(match body {
        Body::Write(_) => TAG_WRITE,
        Body::SnapshotReq(_) => TAG_SNAPSHOT_REQ,
        Body::SnapshotResp(_) => TAG_SNAPSHOT_RESP,
        Body::Init(_) => TAG_INIT,
        Body::InitOk(_) => TAG_INIT_OK,
        Body::Decide(_) => TAG_DECIDE,
    });
    put_u32(buf, node_to_u32(src, "src node id"));
    put_u32(buf, node_to_u32(dest, "dest node id"));
    match body {
        Body::Write(m) => {
            put_u32(buf, round_to_u32(m.round, "write round"));
            put_value(buf, &m.value);
        }
        Body::SnapshotReq(m) => {
            put_u32(buf, round_to_u32(m.round, "snapshot_req round"));
        }
        Body::SnapshotResp(m) => {
            put_u32(buf, round_to_u32(m.round, "snapshot_resp round"));
            put_u32(buf, round_to_u32(m.stamp, "snapshot_resp stamp"));
            match &m.value {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    put_value(buf, v);
                }
            }
        }
        Body::Init(m) => {
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
            put_u32(buf, node_to_u32(m.node, "init_ok node id"));
        }
        Body::Decide(m) => {
            put_u32(buf, round_to_u32(m.round, "decide round"));
            put_value(buf, &m.output);
        }
    }
}

/// Exact byte length [`encode_frame_into`] would append, without
/// materializing anything (the envelope is fixed-width, so the length
/// depends on the body alone).
pub fn binary_len(frame: &Frame) -> usize {
    let body = match &frame.body {
        Body::Write(m) => 4 + value_len(&m.value),
        Body::SnapshotReq(_) => 4,
        Body::SnapshotResp(m) => 4 + 4 + 1 + m.value.as_ref().map_or(0, value_len),
        Body::Init(m) => {
            4 + 4
                + uvarint_len(m.input)
                + uvarint_len(m.rto_ms)
                + uvarint_len(m.pace_ms)
                + uvarint_len(m.alg.len() as u64)
                + m.alg.len()
                + uvarint_len(m.neighbors.len() as u64)
                + 4 * m.neighbors.len()
        }
        Body::InitOk(_) => 4,
        Body::Decide(m) => 4 + value_len(&m.output),
    };
    1 + 1 + 4 + 4 + body
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn uvarint(&mut self) -> Result<u64, WireError> {
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

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.uvarint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        self.value_in(0)
    }

    /// A value enclosed by `depth` containers.
    fn value_in(&mut self, depth: usize) -> Result<Value, WireError> {
        let tag = self.u8()?;
        if matches!(tag, VAL_ARRAY | VAL_OBJECT) && depth >= MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep);
        }
        match tag {
            VAL_NULL => Ok(Value::Null),
            VAL_FALSE => Ok(Value::Bool(false)),
            VAL_TRUE => Ok(Value::Bool(true)),
            VAL_POSINT => Ok(Value::Number(Number::PosInt(self.uvarint()?))),
            VAL_NEGINT => Ok(Value::Number(Number::NegInt(self.uvarint()? as i64))),
            VAL_FLOAT => {
                let b = self.take(8)?;
                let bits = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                Ok(Value::Number(Number::Float(f64::from_bits(bits))))
            }
            VAL_STRING => Ok(Value::String(self.str()?)),
            VAL_ARRAY => {
                let count = self.uvarint()? as usize;
                // Bounded reserve: a hostile count must not preallocate.
                let mut items = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    items.push(self.value_in(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            VAL_OBJECT => {
                let count = self.uvarint()? as usize;
                let mut pairs = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    let k = self.str()?;
                    let v = self.value_in(depth + 1)?;
                    pairs.push((k, v));
                }
                Ok(Value::Object(pairs))
            }
            other => Err(WireError::BadValueTag(other)),
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
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let src = node_from_u32(r.u32()?);
    let dest = node_from_u32(r.u32()?);
    let body = match tag {
        TAG_WRITE => Body::Write(crate::msg::Write {
            round: u64::from(r.u32()?),
            value: r.value()?,
        }),
        TAG_SNAPSHOT_REQ => Body::SnapshotReq(SnapshotReq {
            round: u64::from(r.u32()?),
        }),
        TAG_SNAPSHOT_RESP => {
            let round = u64::from(r.u32()?);
            let stamp = u64::from(r.u32()?);
            let value = match r.u8()? {
                0 => None,
                1 => Some(r.value()?),
                other => return Err(WireError::BadPresence(other)),
            };
            Body::SnapshotResp(SnapshotResp {
                round,
                value,
                stamp,
            })
        }
        TAG_INIT => {
            let node = node_from_u32(r.u32()?);
            let n = node_from_u32(r.u32()?);
            let input = r.uvarint()?;
            let rto_ms = r.uvarint()?;
            let pace_ms = r.uvarint()?;
            let alg = r.str()?;
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
            output: r.value()?,
        }),
        other => return Err(WireError::BadTag(other)),
    };
    if r.pos != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - r.pos));
    }
    Ok(Frame { src, dest, body })
}

/// Appends `frame` onto `buf` with its `u32` LE length prefix — the
/// stream framing spoken on the cluster's child-process pipes.
pub fn append_framed(frame: &Frame, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    encode_frame_into(frame, buf);
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes one length-prefixed payload to `w` (prefix + payload, no
/// flush).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_framed<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed payload from `r` into `buf` (replacing its
/// contents). Returns `Ok(false)` on clean EOF before a prefix.
///
/// # Errors
///
/// `UnexpectedEof` on a torn prefix or payload, `InvalidData` when the
/// prefix exceeds [`MAX_FRAME_BYTES`], and any underlying I/O error.
pub fn read_framed<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn length prefix",
                ))
            }
            k => got += k,
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Write as WriteMsg, ORCHESTRATOR};

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
            assert_eq!(buf.len(), binary_len(&f), "binary_len matches for {f:?}");
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
    fn json_lines_past_the_frame_cap_end_the_stream() {
        let hostile = io::repeat(b'x').take(u64::from(MAX_FRAME_BYTES) + 2);
        let stream = io::BufReader::new(io::Cursor::new(b"ok\n").chain(hostile));
        let mut payloads = Vec::new();
        Codec::Json.read_records(stream, |p| {
            payloads.push(p.len());
            true
        });
        assert_eq!(payloads, [2], "an over-cap line must stop the reader");
    }

    #[test]
    fn stream_framing_round_trips() {
        let mut stream = Vec::new();
        for f in sample_frames() {
            let mut payload = Vec::new();
            encode_frame_into(&f, &mut payload);
            write_framed(&mut stream, &payload).expect("write");
        }
        let mut also = Vec::new();
        for f in sample_frames() {
            append_framed(&f, &mut also);
        }
        assert_eq!(stream, also, "append_framed matches write_framed");
        let mut cursor = io::Cursor::new(stream);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        while read_framed(&mut cursor, &mut buf).expect("read") {
            seen.push(decode_frame(&buf).expect("decode"));
        }
        assert_eq!(seen, sample_frames());
    }

    #[test]
    fn read_framed_rejects_torn_and_hostile_input() {
        let mut payload = Vec::new();
        encode_frame_into(&sample_frames()[1], &mut payload);
        let mut stream = Vec::new();
        write_framed(&mut stream, &payload).expect("write");
        // Torn anywhere mid-record: UnexpectedEof, never a hang or panic.
        for cut in 1..stream.len() {
            let mut cursor = io::Cursor::new(stream[..cut].to_vec());
            let mut buf = Vec::new();
            assert!(read_framed(&mut cursor, &mut buf).is_err(), "cut at {cut}");
        }
        // Hostile length prefix: rejected before allocating.
        let mut cursor = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        let mut buf = Vec::new();
        let err = read_framed(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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

    #[test]
    fn codec_names_parse_back() {
        for codec in [Codec::Json, Codec::Binary] {
            assert_eq!(Codec::parse(codec.name()), Some(codec));
        }
        assert_eq!(Codec::parse("msgpack"), None);
        assert_eq!(Codec::parse("typed"), None);
    }
}
