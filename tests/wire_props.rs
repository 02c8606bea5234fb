//! Property tests of the binary wire codec (`ftcolor::net::wire`): the
//! codec is only allowed to change *byte encodings*, never meaning, so
//! the properties are stated against the JSON codec as ground truth.
//! Binary round-trips are the identity on arbitrary frames (all six
//! kinds, adversarial strings and values); a frame decoded from its
//! binary bytes and the same frame decoded from its JSON line are the
//! same frame; torn, truncated, or garbage byte strings are rejected
//! with a typed error rather than a panic or a wrong frame; and the
//! buffer pool never hands out a buffer that still aliases a live one.
//! The typed register path (`decode_msg`, which reads a register
//! straight into its type) agrees with the tree path on every encoding
//! the tree path writes, and refuses garbage with a typed error too.

use ftcolor::core::alg3::Rank;
use ftcolor::core::alg3_patched::Reg3P;
use ftcolor::net::wire::{decode_frame, decode_msg, encode_frame_into, encode_msg_into};
use ftcolor::net::{
    Body, Decide, Frame, Init, InitOk, Msg, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR,
};
use ftcolor::net::{WireError, WirePool, WIRE_VERSION};
use proptest::prelude::*;
use serde::{Deserialize, Number, Serialize, Value};
use std::fmt::Debug;

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

    /// An Algorithm 3′ register's tree, often mangled the ways a
    /// hostile or foreign peer could: a field dropped, repeated, moved,
    /// retyped or joined by an unknown one, a rank out of `u32` range or
    /// in the wrong variant shape.
    fn register_tree(&mut self) -> Value {
        let rank = match self.below(3) {
            0 => Rank::Omega,
            1 => Rank::Finite(u32::MAX),
            _ => Rank::Finite(self.below(1 << 10) as u32),
        };
        let reg = Reg3P {
            x: self.next(),
            r: rank,
            a: self.below(5),
            b: self.below(5),
            c: self.below(1 << 20),
        };
        let Value::Object(mut fields) = reg.to_value() else {
            unreachable!("a named struct is an object")
        };
        for _ in 0..self.below(4) {
            let at = self.below(fields.len().max(1) as u64) as usize;
            match self.below(8) {
                0 if !fields.is_empty() => drop(fields.remove(at)),
                1 if !fields.is_empty() => {
                    let (k, _) = fields[at].clone();
                    fields.push((k, self.value(2)));
                }
                2 if !fields.is_empty() => {
                    let pair = fields.remove(at);
                    fields.insert(0, pair);
                }
                3 if !fields.is_empty() => fields[at].1 = self.value(2),
                4 => fields.insert(at.min(fields.len()), (self.string(), self.value(3))),
                5 if !fields.is_empty() => {
                    let wide = u64::from(u32::MAX) + 1 + self.below(1 << 20);
                    fields[at].1 =
                        Value::Object(vec![("Finite".into(), Value::Number(Number::PosInt(wide)))]);
                }
                6 if !fields.is_empty() => {
                    fields[at].1 = Value::Object(vec![("Omega".into(), Value::Null)]);
                }
                _ => {}
            }
        }
        if self.below(16) == 0 {
            self.value(2)
        } else {
            Value::Object(fields)
        }
    }

    /// A register-protocol frame whose payload is a register tree.
    fn register_frame(&mut self) -> Frame {
        let round = self.below(1 << 30);
        let body = match self.below(3) {
            0 => Body::Write(Write {
                round,
                value: self.register_tree(),
            }),
            1 => Body::SnapshotReq(SnapshotReq { round }),
            _ => Body::SnapshotResp(SnapshotResp {
                round,
                value: (self.below(4) != 0).then(|| self.register_tree()),
                stamp: self.below(1 << 30),
            }),
        };
        Frame {
            src: self.node_id(),
            dest: self.node_id(),
            body,
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

    /// Binary round-trip is the identity.
    #[test]
    fn binary_round_trip_is_identity(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let mut buf = Vec::new();
        encode_frame_into(&frame, &mut buf);
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
                encode_frame_into(&frame, &mut buf);
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

/// The typed decode of `bytes` as `R` against the tree path: decode the
/// frame's `Value` tree, then `R::from_value` its register. Equal
/// messages, or the same shape error.
fn typed_matches_tree<R>(bytes: &[u8]) -> Result<(), String>
where
    R: Deserialize + PartialEq + Debug,
{
    let tree = decode_frame(bytes).map_err(|e| format!("not an encoding: {e}"))?;
    let want = tree
        .body
        .msg()
        .expect("a register frame")
        .try_map(R::from_value)
        .map(|msg| (tree.src, tree.dest, msg));
    let got = decode_msg::<R>(bytes);
    match (got, want) {
        (Ok(got), Ok(want)) if got == want => Ok(()),
        (Err(WireError::Register(got)), Err(want)) if got == want => Ok(()),
        (got, want) => Err(format!("typed {got:?} != tree {want:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On every register frame the tree path encodes (valid registers
    /// and mangled ones), the typed decode equals the tree decode
    /// followed by `from_value`, as an Algorithm 3′ register, as a
    /// `Value`, and as other register shapes.
    #[test]
    fn typed_decode_equals_the_tree_path(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).register_frame();
        let mut bytes = Vec::new();
        encode_frame_into(&frame, &mut bytes);
        prop_assert_eq!(typed_matches_tree::<Reg3P>(&bytes), Ok(()));
        prop_assert_eq!(typed_matches_tree::<Value>(&bytes), Ok(()));
        prop_assert_eq!(typed_matches_tree::<Rank>(&bytes), Ok(()));
        prop_assert_eq!(typed_matches_tree::<Vec<(u64, u64)>>(&bytes), Ok(()));
        prop_assert_eq!(typed_matches_tree::<Option<u32>>(&bytes), Ok(()));
    }

    /// The typed path writes what the tree path writes, and reads it
    /// back; every strict prefix and any trailing byte is a typed error.
    #[test]
    fn typed_encodings_round_trip_and_tears_are_refused(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let Ok(reg) = Reg3P::from_value(&g.register_tree()) else {
            return Ok(());
        };
        let msg = Msg::SnapshotResp { round: g.below(1 << 30), value: Some(&reg), stamp: 7 };
        let mut typed = Vec::new();
        encode_msg_into(3, 4, &msg, &mut typed);
        let mut tree = Vec::new();
        encode_frame_into(&Frame { src: 3, dest: 4, body: msg.to_body() }, &mut tree);
        prop_assert_eq!(&typed, &tree);
        prop_assert_eq!(decode_msg::<Reg3P>(&typed), Ok((3, 4, msg.map(|r| *r))));
        for cut in 0..typed.len() {
            prop_assert!(decode_msg::<Reg3P>(&typed[..cut]).is_err(), "cut at {}", cut);
        }
        typed.push(0);
        prop_assert_eq!(decode_msg::<Reg3P>(&typed), Err(WireError::TrailingBytes(1)));
    }

    /// Garbage after a valid register-frame header (so the decoder gets
    /// past the envelope) decodes through the typed path to a message
    /// or a typed error, never a panic.
    #[test]
    fn typed_decode_of_garbage_never_panics(seed in 0u64..u64::MAX, len in 0usize..96) {
        let mut g = Gen(seed);
        let tag = 1 + g.below(3) as u8;
        let mut bytes = vec![WIRE_VERSION, tag];
        bytes.extend((0..len).map(|_| match g.below(4) {
            // Bias towards value tags so containers and strings occur.
            0 => g.below(9) as u8,
            _ => g.next() as u8,
        }));
        let _ = decode_msg::<Reg3P>(&bytes);
        let _ = decode_msg::<Value>(&bytes);
        let _ = decode_msg::<Vec<(u64, String)>>(&bytes);
        let _ = decode_msg::<Rank>(&bytes);
    }
}

/// A `write` frame from node 0 to 1 in round 0 whose register is the
/// value-format bytes `value`.
fn raw_write(value: &[u8]) -> Vec<u8> {
    let mut bytes = vec![WIRE_VERSION, 0x01];
    bytes.extend_from_slice(&[0; 12]); // src, dest, round
    bytes.extend_from_slice(value);
    bytes
}

/// Hostile registers the typed path must refuse by name: nesting past
/// the cap inside a skipped unknown key, a key that is not UTF-8, a
/// rank past `u32::MAX`, and bytes after the frame.
#[test]
fn typed_decode_refuses_hostile_registers_by_name() {
    let reg = Reg3P {
        x: 1,
        r: Rank::Finite(2),
        a: 3,
        b: 4,
        c: 5,
    };
    let mut good = Vec::new();
    encode_msg_into(
        0,
        1,
        &Msg::Write {
            round: 0,
            value: &reg,
        },
        &mut good,
    );
    let value = &good[14..];
    assert_eq!(
        decode_msg::<Reg3P>(&good),
        Ok((
            0,
            1,
            Msg::Write {
                round: 0,
                value: reg
            }
        ))
    );

    // `{"x":1, ..., "zz": [[[...null...]]]}` with the extra key nested
    // `depth` arrays deep, skipped as unknown.
    let nested = |depth: usize| {
        let mut v = value.to_vec();
        v[1] += 1; // one more pair
        v.extend_from_slice(&[2, b'z', b'z']);
        for _ in 0..depth {
            v.extend_from_slice(&[0x07, 1]);
        }
        v.push(0x00);
        raw_write(&v)
    };
    // The object is one level, so 127 more arrays stay within the cap.
    assert!(decode_msg::<Reg3P>(&nested(127)).is_ok());
    assert_eq!(decode_msg::<Reg3P>(&nested(128)), Err(WireError::TooDeep));
    assert_eq!(
        decode_msg::<Reg3P>(&nested(1 << 16)),
        Err(WireError::TooDeep)
    );

    let mut bad_key = value.to_vec();
    bad_key[3] = 0xff; // the first key, "x", becomes a lone 0xff byte
    assert_eq!(
        decode_msg::<Reg3P>(&raw_write(&bad_key)),
        Err(WireError::BadUtf8)
    );

    let wide = Reg3P {
        r: Rank::Finite(0),
        ..reg
    };
    let Value::Object(mut fields) = wide.to_value() else {
        unreachable!("a named struct is an object")
    };
    fields[1].1 = Value::Object(vec![(
        "Finite".into(),
        Value::Number(Number::PosInt(u64::from(u32::MAX) + 1)),
    )]);
    let mut bytes = Vec::new();
    encode_frame_into(
        &Frame {
            src: 0,
            dest: 1,
            body: Body::Write(Write {
                round: 0,
                value: Value::Object(fields),
            }),
        },
        &mut bytes,
    );
    match decode_msg::<Reg3P>(&bytes) {
        Err(WireError::Register(e)) => assert!(e.to_string().contains("overflows u32"), "{e}"),
        other => panic!("a rank of 2^32 decoded as {other:?}"),
    }

    good.push(0x00);
    assert_eq!(decode_msg::<Reg3P>(&good), Err(WireError::TrailingBytes(1)));
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
