//! Recorded delivery traces: the network's fault decisions, replayable.
//!
//! Every send in a simulation draws its fate (partition cut, drop,
//! delay, duplicate, reorder) from the seeded network RNG and records
//! the outcome as one [`TraceEntry`]. The resulting [`DeliveryTrace`]
//! is a complete transcript of the adversary: feeding it back through
//! [`crate::replay_net`] reproduces the run bit-for-bit without
//! consulting the RNG at all.
//!
//! A run records one entry per send — hundreds of thousands on a large
//! ring — so the trace is held packed, not as a `Vec<TraceEntry>`: a
//! [`TraceLog`] stores each entry as a header byte and a few varints of
//! deltas (about 6.5 bytes per send on a lossy alg3p ring, against 64
//! for the decoded struct). [`TraceEntry`] stays the decoded view:
//! iterating a log yields owned entries, and replay walks the log with
//! a decoding cursor.
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
    /// All sends, in send order (the entry at index `i` has `seq == i`).
    pub entries: TraceLog,
}

impl FromIterator<TraceEntry> for DeliveryTrace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(entries: I) -> Self {
        DeliveryTrace {
            entries: entries.into_iter().collect(),
        }
    }
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
            serde_json::append_to_string(&e, &mut entry);
            h = fnv1a_extend(h, entry.as_bytes());
        }
        fnv1a_extend(h, b"]}")
    }
}

// ------------------------------------------------------------ packed log

/// Bytes one chunk of a [`TraceLog`] holds. The log grows a chunk at a
/// time instead of doubling one buffer, so it holds little more than
/// the bytes it stores.
const CHUNK: usize = 64 * 1024;

/// The most bytes one packed entry takes: the header, four 64-bit
/// varints (`t`, `at`, `dup_at`, `seq`) and two 32-bit ones (`from`,
/// `to`).
const MAX_ENTRY: usize = 1 + 4 * 10 + 2 * 5;

/// Header bit: a duplicate's delivery time follows.
const HAS_DUP: u8 = 1 << 4;
/// Header bit: the entry's `seq` is not its index, and follows.
const HAS_SEQ: u8 = 1 << 5;

/// A delivery trace's entries, packed.
///
/// Each entry is one header byte — frame kind (bits 0–1), outcome tag
/// (bits 2–3), whether a duplicate was injected (bit 4) and whether
/// `seq` differs from the entry's index (bit 5) — then LEB128 varints:
/// - the zigzag delta of `t` from the previous entry's `t`;
/// - `from`, and the zigzag of `to − from`;
/// - `at − t` for a delivery, and `dup_at − t` for a duplicate;
/// - `seq`, only where it differs from the entry's index.
///
/// All arithmetic wraps, so every [`TraceEntry`] round-trips exactly,
/// including hand-edited traces whose `t` runs backwards or whose `seq`
/// is not the index. An entry never straddles two chunks.
#[derive(Clone, Default)]
pub struct TraceLog {
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// `t` of the last entry: the base of the next entry's delta.
    last_t: u64,
}

impl TraceLog {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `e`.
    pub fn push(&mut self, e: TraceEntry) {
        let mut buf = [0u8; MAX_ENTRY];
        let (tag, at) = match e.outcome {
            Outcome::Deliver { at } => (0, Some(at)),
            Outcome::Drop => (1, None),
            Outcome::PartitionDrop => (2, None),
        };
        let seq = (e.seq != self.len as u64).then_some(e.seq);
        buf[0] = e.kind as u8
            | tag << 2
            | if e.dup_at.is_some() { HAS_DUP } else { 0 }
            | if seq.is_some() { HAS_SEQ } else { 0 };
        let mut n = 1;
        let mut put = |mut v: u64| {
            while v >= 0x80 {
                buf[n] = v as u8 | 0x80;
                v >>= 7;
                n += 1;
            }
            buf[n] = v as u8;
            n += 1;
        };
        put(zigzag(e.t.wrapping_sub(self.last_t)));
        put(u64::from(e.from));
        put(zigzag(u64::from(e.to).wrapping_sub(u64::from(e.from))));
        for v in at.into_iter().chain(e.dup_at) {
            put(v.wrapping_sub(e.t));
        }
        if let Some(seq) = seq {
            put(seq);
        }
        let bytes = &buf[..n];
        match self.chunks.last_mut() {
            Some(chunk) if chunk.capacity() - chunk.len() >= n => chunk.extend_from_slice(bytes),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.extend_from_slice(bytes);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        self.last_t = e.t;
    }

    /// The entries, decoded, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            bytes: &[],
            index: 0,
            left: self.len,
            t: 0,
        }
    }
}

/// Zigzag-encodes a wrapped difference, so small steps either way take
/// one varint byte.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// A decoding cursor over a [`TraceLog`]: yields owned entries.
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The rest of the current chunk.
    bytes: &'a [u8],
    index: u64,
    left: usize,
    /// `t` of the last entry yielded.
    t: u64,
}

impl Iter<'_> {
    /// The next varint; the log wrote it, so it is well formed.
    fn take(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let (&b, rest) = self.bytes.split_first().expect("a packed entry is whole");
            self.bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.bytes.is_empty() {
            self.bytes = self.chunks.next()?;
        }
        let (&head, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        let kind = match head & 3 {
            0 => FrameKind::Write,
            1 => FrameKind::SnapshotReq,
            _ => FrameKind::SnapshotResp,
        };
        let t = self.t.wrapping_add(unzigzag(self.take()));
        let from = self.take();
        let to = from.wrapping_add(unzigzag(self.take()));
        let outcome = match head >> 2 & 3 {
            0 => Outcome::Deliver {
                at: t.wrapping_add(self.take()),
            },
            1 => Outcome::Drop,
            _ => Outcome::PartitionDrop,
        };
        let dup_at = (head & HAS_DUP != 0).then(|| t.wrapping_add(self.take()));
        let seq = if head & HAS_SEQ != 0 {
            self.take()
        } else {
            self.index
        };
        self.index += 1;
        self.left -= 1;
        self.t = t;
        Some(TraceEntry {
            seq,
            t,
            from: from as u32,
            to: to as u32,
            kind,
            outcome,
            dup_at,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEntry;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEntry> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(entries: I) -> Self {
        let mut log = TraceLog::default();
        for e in entries {
            log.push(e);
        }
        log
    }
}

/// Two logs are equal when their entries are (chunk boundaries differ
/// between a log and its clone, so the bytes are not compared).
impl PartialEq for TraceLog {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The same JSON array a `Vec<TraceEntry>` writes.
impl Serialize for TraceLog {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_array(self.len);
        for e in self {
            e.serialize(sink);
        }
        sink.end();
    }
}

/// Reads the JSON array of a `Vec<TraceEntry>`, packing each entry as
/// it parses.
impl Deserialize for TraceLog {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, S::Error> {
        match src.next()? {
            Token::Array(n) => {
                let mut log = TraceLog::default();
                for _ in 0..n {
                    log.push(TraceEntry::deserialize(src)?);
                }
                src.end();
                Ok(log)
            }
            head => src.invalid(head, |v| format!("expected an array, got {v:?}")),
        }
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

    impl TraceLog {
        /// Bytes the packed entries take (not counting unused capacity).
        fn packed_bytes(&self) -> usize {
            self.chunks.iter().map(Vec::len).sum()
        }
    }

    fn sample() -> DeliveryTrace {
        [
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
        ]
        .into_iter()
        .collect()
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
        let t = sample();
        assert_eq!(t.digest(), fnv1a(t.to_json().as_bytes()));
        let empty = DeliveryTrace::default();
        assert_eq!(empty.digest(), fnv1a(empty.to_json().as_bytes()));
    }

    #[test]
    fn digest_distinguishes_different_traces() {
        let a = sample();
        let b: DeliveryTrace = a
            .entries
            .iter()
            .map(|mut e| {
                if e.seq == 1 {
                    e.outcome = Outcome::Deliver { at: 4 };
                }
                e
            })
            .collect();
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());
    }

    /// Every varint at its widest: the entry takes exactly
    /// `MAX_ENTRY` bytes, the size of `push`'s staging buffer.
    #[test]
    fn the_widest_entry_fills_max_entry() {
        let t = 1 << 62;
        let widest = TraceEntry {
            seq: u64::MAX,
            t,
            from: u32::MAX,
            to: 0,
            kind: FrameKind::SnapshotResp,
            outcome: Outcome::Deliver { at: t - 1 },
            dup_at: Some(t - 1),
        };
        let log: TraceLog = [widest.clone()].into_iter().collect();
        assert_eq!(log.packed_bytes(), MAX_ENTRY);
        assert_eq!(log.iter().collect::<Vec<_>>(), vec![widest]);
    }

    #[test]
    fn a_log_grows_chunk_by_chunk() {
        let e = |seq: u64| TraceEntry {
            seq,
            t: seq,
            from: 1,
            to: 2,
            kind: FrameKind::Write,
            outcome: Outcome::Drop,
            dup_at: None,
        };
        let mut log: TraceLog = (0..CHUNK as u64).map(e).collect();
        assert!(
            log.chunks.len() > 1,
            "{} bytes fit one chunk",
            log.packed_bytes()
        );
        assert!(log.chunks.iter().all(|c| c.capacity() == CHUNK));
        // A clone holds exactly its bytes; pushing onto it opens a chunk.
        let mut copy = log.clone();
        copy.push(e(CHUNK as u64));
        log.push(e(CHUNK as u64));
        assert_eq!(copy, log);
        assert!(copy.iter().map(|e| e.seq).eq(0..=CHUNK as u64));
    }

    /// What a lossy alg3p ring's trace costs per send, packed: the
    /// decoded [`TraceEntry`] is 64 bytes.
    #[test]
    fn a_lossy_alg3p_trace_packs_into_a_few_bytes_per_send() {
        use crate::{run_net, FaultPlan, NetConfig};
        use ftcolor_core::FastFiveColoringPatched;
        use ftcolor_model::{inputs, Topology};

        let n = 2_000;
        let topo = Topology::cycle(n).expect("n >= 3");
        let report = run_net(
            &FastFiveColoringPatched,
            &topo,
            inputs::random_permutation(n, 1),
            &FaultPlan::lossy(0.1),
            &NetConfig::new(1),
        );
        let log = &report.trace.entries;
        let per_send = log.packed_bytes() as f64 / log.len() as f64;
        assert!(log.len() > 10 * n, "{} sends", log.len());
        assert!(per_send <= 8.0, "{per_send:.2} B per send");
        assert_eq!(log.iter().count(), log.len());
    }
}
