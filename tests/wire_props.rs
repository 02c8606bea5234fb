//! Property tests of the binary wire codec (`ftcolor::net::wire`): the
//! codec is only allowed to change *byte encodings*, never meaning, so
//! the properties are stated against the JSON codec as ground truth.
//! Binary round-trips are the identity on arbitrary frames (all six
//! kinds, adversarial strings and values); a frame decoded from its
//! binary bytes and the same frame decoded from its JSON line are the
//! same frame; torn, truncated, or garbage byte strings are rejected
//! with a typed error rather than a panic or a wrong frame; and the
//! buffer pool never hands out a buffer that still aliases a live one.

use ftcolor::core::alg3::Rank;
use ftcolor::core::alg3_patched::Reg3P;
use ftcolor::net::wire::{append_framed, binary_len, decode_frame, encode_frame_into, read_framed};
use ftcolor::net::{
    Body, Decide, Frame, Init, InitOk, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR,
};
use ftcolor::net::{WirePool, MAX_FRAME_BYTES};
use proptest::prelude::*;
use serde::{Deserialize, Number, Serialize, Value};

/// A tiny deterministic PRNG (splitmix64) so every structure below can
/// be hand-rolled from one integer draw — the vendored proptest shim
/// offers integer-range strategies only, no collection strategies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Adversarial strings: empty, huge, multi-byte UTF-8, JSON
    /// metacharacters, embedded quotes/backslashes/newlines/NULs.
    fn string(&mut self) -> String {
        const POOL: [&str; 10] = [
            "",
            "alg3p",
            "a\"b\\c",
            "line\nbreak\ttab",
            "nul\u{0}byte",
            "héllo wörld",
            "日本語のテキスト",
            "🦀🦀🦀",
            "{\"looks\":[\"like\",\"json\"]}",
            "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}",
        ];
        let pick = POOL[self.below(POOL.len() as u64) as usize].to_string();
        if self.below(8) == 0 {
            pick.repeat(64) // long strings cross varint-length byte boundaries
        } else {
            pick
        }
    }

    /// Arbitrary JSON values, depth-bounded so nesting terminates.
    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.next() & 1 == 0),
            2 => Value::Number(Number::PosInt(self.next())),
            3 => Value::Number(Number::NegInt(-((self.below(1 << 40)) as i64) - 1)),
            // Floats restricted to exactly representable values: the
            // JSON path prints and reparses them, and the property is
            // codec equality, not float formatting.
            4 => Value::Number(Number::Float(self.below(1 << 20) as f64 / 16.0)),
            5 => Value::String(self.string()),
            6 => {
                let k = self.below(4) as usize;
                Value::Array((0..k).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let k = self.below(4) as usize;
                Value::Object(
                    (0..k)
                        .map(|i| (format!("k{i}{}", self.string()), self.value(depth - 1)))
                        .collect(),
                )
            }
        }
    }

    fn node_id(&mut self) -> usize {
        match self.below(4) {
            0 => ORCHESTRATOR,
            1 => u32::MAX as usize - 1, // largest encodable real id
            _ => self.below(1 << 20) as usize,
        }
    }

    /// One arbitrary frame, uniformly covering all six kinds.
    fn frame(&mut self) -> Frame {
        let body = match self.below(6) {
            0 => Body::Write(Write {
                round: self.below(1 << 30),
                value: self.value(2),
            }),
            1 => Body::SnapshotReq(SnapshotReq {
                round: self.below(1 << 30),
            }),
            2 => Body::SnapshotResp(SnapshotResp {
                round: self.below(1 << 30),
                // `Some(Null)` is excluded: JSON serializes `None` as
                // `null`, so that corner is unrepresentable in the JSON
                // codec (the protocol never writes null registers).
                value: if self.next() & 1 == 0 {
                    None
                } else {
                    match self.value(2) {
                        Value::Null => None,
                        v => Some(v),
                    }
                },
                stamp: self.below(1 << 30),
            }),
            3 => Body::Init(Init {
                node: self.below(1 << 16) as usize,
                n: self.below(1 << 16) as usize,
                alg: self.string(),
                input: self.next(),
                neighbors: (0..self.below(5)).map(|_| self.node_id()).collect(),
                rto_ms: self.below(1 << 20),
                pace_ms: self.below(1 << 20),
            }),
            4 => Body::InitOk(InitOk {
                node: self.below(1 << 16) as usize,
            }),
            _ => Body::Decide(Decide {
                round: self.below(1 << 30),
                output: self.value(2),
            }),
        };
        Frame {
            src: self.node_id(),
            dest: self.node_id(),
            body,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary round-trip is the identity, and `binary_len` predicts the
    /// encoded size exactly without materializing anything.
    #[test]
    fn binary_round_trip_is_identity(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let mut buf = Vec::new();
        encode_frame_into(&frame, &mut buf);
        prop_assert_eq!(buf.len(), binary_len(&frame));
        let back = decode_frame(&buf).expect("round trip decodes");
        prop_assert_eq!(format!("{frame:?}"), format!("{back:?}"));
    }

    /// Cross-decode equality: the frame recovered from its binary bytes
    /// equals the frame recovered from its JSON line — the two codecs
    /// describe the same frame, so neither can smuggle in a semantic
    /// difference.
    #[test]
    fn json_and_binary_decode_to_the_same_frame(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let mut bin = Vec::new();
        encode_frame_into(&frame, &mut bin);
        let from_bin = decode_frame(&bin).expect("binary decodes");
        let from_json = Frame::decode(&frame.encode()).expect("json decodes");
        prop_assert_eq!(format!("{from_json:?}"), format!("{from_bin:?}"));
    }

    /// Every strict prefix of a valid encoding is rejected (never a
    /// panic, never a bogus frame), and a valid encoding with trailing
    /// bytes is rejected too: framing errors surface as typed errors.
    #[test]
    fn torn_and_padded_encodings_are_rejected(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let mut buf = Vec::new();
        encode_frame_into(&frame, &mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut]).is_err(),
                "truncation to {cut}/{} bytes was accepted", buf.len()
            );
        }
        buf.push(0);
        prop_assert!(decode_frame(&buf).is_err(), "trailing byte was accepted");
    }

    /// Pure garbage: random bytes either decode to *some* frame (fine —
    /// short inputs can collide with tiny valid encodings) or return a
    /// typed error; they never panic. And garbage with a wrong version
    /// byte is always rejected.
    #[test]
    fn garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..64) {
        let mut g = Gen(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        let _ = decode_frame(&bytes); // must not panic
        if !bytes.is_empty() {
            bytes[0] = bytes[0].wrapping_add(1).max(2); // any version != 1
            prop_assert!(decode_frame(&bytes).is_err());
        }
    }

    /// Stream framing rejects torn length prefixes and payloads with
    /// `UnexpectedEof`, and oversized length prefixes with
    /// `InvalidData`, instead of blocking or over-reading.
    #[test]
    fn stream_framing_rejects_torn_and_hostile_prefixes(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let mut framed = Vec::new();
        ftcolor::net::wire::append_framed(&frame, &mut framed);
        let mut scratch = Vec::new();
        for cut in 1..framed.len() {
            let mut r = &framed[..cut];
            let err = read_framed(&mut r, &mut scratch)
                .expect_err("torn record was accepted");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // A hostile length prefix past the cap must be refused before
        // any allocation of that size.
        let huge = (MAX_FRAME_BYTES + 1 + (Gen(seed).below(1 << 10) as u32)).to_le_bytes();
        let mut r = &huge[..];
        let err = read_framed(&mut r, &mut scratch).expect_err("hostile prefix accepted");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Pool reuse never aliases a live buffer: interleaved
    /// acquire/encode/release cycles keep every held buffer's contents
    /// intact until *it* is released, and recycled buffers come back
    /// empty.
    #[test]
    fn pool_reuse_never_aliases_live_buffers(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mut pool = WirePool::default();
        let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // (buffer, expected copy)
        for _ in 0..64 {
            if live.is_empty() || g.next() & 1 == 0 {
                let mut buf = pool.acquire();
                prop_assert!(buf.is_empty(), "recycled buffer came back dirty");
                let frame = g.frame();
                append_framed(&frame, &mut buf);
                let expected = buf.clone();
                live.push((buf, expected));
            } else {
                let pick = g.below(live.len() as u64) as usize;
                let (buf, expected) = live.swap_remove(pick);
                prop_assert_eq!(&buf, &expected, "a pool recycle clobbered a live buffer");
                pool.release(buf);
            }
        }
        for (buf, expected) in live {
            prop_assert_eq!(&buf, &expected, "a held buffer changed under the pool");
            pool.release(buf);
        }
        prop_assert!(pool.hits() > 0, "the cycle never exercised reuse");
    }
}

/// A `write` frame carrying `value`, decoded back through both codecs.
fn through_both_codecs(value: Value) -> [Value; 2] {
    let frame = Frame {
        src: 0,
        dest: 1,
        body: Body::Write(Write { round: 7, value }),
    };
    let mut bin = Vec::new();
    encode_frame_into(&frame, &mut bin);
    [
        decode_frame(&bin).expect("binary decodes"),
        Frame::decode(&frame.encode()).expect("json decodes"),
    ]
    .map(|back| match back.body {
        Body::Write(w) => w.value,
        other => panic!("a write frame came back as {other:?}"),
    })
}

/// The widest green-light rank crosses both codecs unchanged, and a
/// register whose rank does not fit a `u32` decodes to a typed error
/// after either codec, never to a truncated rank.
#[test]
fn alg3_ranks_cross_both_codecs_or_are_refused() {
    for r in [Rank::Finite(u32::MAX), Rank::Omega] {
        let reg = Reg3P {
            x: u64::MAX,
            r,
            a: 4,
            b: 3,
            c: 1 << 40,
        };
        for back in through_both_codecs(reg.to_value()) {
            assert_eq!(Reg3P::from_value(&back), Ok(reg));
        }
    }
    let mut wide = Reg3P {
        x: 9,
        r: Rank::Finite(0),
        a: 0,
        b: 1,
        c: 2,
    }
    .to_value();
    let Value::Object(fields) = &mut wide else {
        panic!("Reg3P encodes as an object: {wide:?}");
    };
    let r = fields
        .iter_mut()
        .find(|(k, _)| k == "r")
        .expect("an r field");
    r.1 = Value::Object(vec![(
        "Finite".into(),
        Value::Number(Number::PosInt(u64::from(u32::MAX) + 1)),
    )]);
    for back in through_both_codecs(wide) {
        let err = Reg3P::from_value(&back).expect_err("2^32 does not fit a rank");
        assert!(err.to_string().contains("overflows u32"), "{err}");
    }
}
