//! The binary wire bytes of register frames, pinned as hex.
//!
//! One fixed register per `netsim` catalogue entry (its round-0
//! publication for input 41 at node 1; the DECOUPLED entry's gossip
//! payload instead), plus Algorithm 3′ registers whose green-light
//! counter is `Omega` and `Finite(u32::MAX)`, each carried by a `write`
//! and a `snapshot_resp`. The pins were taken from the codec that built
//! a `serde::Value` tree per register. Both paths must still write
//! exactly these bytes: the `Value`-tree [`Frame`] path and the typed
//! [`Msg`] path the simulators run, which must also read each register
//! back.

use ftcolor::core::alg3::Rank;
use ftcolor::core::alg3_patched::Reg3P;
use ftcolor::core::mis::{EagerMis, ImpatientMis, LocalMaxMis};
use ftcolor::core::renaming::RankRenaming;
use ftcolor::core::sync_local::{ColeVishkinThree, CvInput};
use ftcolor::core::{
    DeltaSquaredColoring, FastFiveColoring, FastFiveColoringPatched, FiveColoring,
    FiveColoringPatched, SixColoring,
};
use ftcolor::model::{Algorithm, ProcessId};
use ftcolor::net::wire::{decode_msg, encode_frame_into, encode_msg_into};
use ftcolor::net::{Frame, Msg};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// `(entry, write hex, snapshot_resp hex)`.
const PINS: [(&str, &str, &str); 14] = [
    ("alg1", "010101000000020000000300000008020178032905636f6c6f7208020161030001620300", "0103020000000100000003000000040000000108020178032905636f6c6f7208020161030001620300"),
    ("alg2", "01010100000002000000030000000803017803290161030001620300", "010302000000010000000300000004000000010803017803290161030001620300"),
    ("alg2p", "0101010000000200000003000000080401780329016103000162030001630300", "01030200000001000000030000000400000001080401780329016103000162030001630300"),
    ("alg3", "0101010000000200000003000000080401780329017208010646696e69746503000161030001620300", "01030200000001000000030000000400000001080401780329017208010646696e69746503000161030001620300"),
    ("alg3p", "0101010000000200000003000000080501780329017208010646696e6974650300016103000162030001630300", "01030200000001000000030000000400000001080501780329017208010646696e6974650300016103000162030001630300"),
    ("alg4", "010101000000020000000300000008020178032905636f6c6f7208020161030001620300", "0103020000000100000003000000040000000108020178032905636f6c6f7208020161030001620300"),
    ("cv", "0101010000000200000003000000080403706f73030105726f756e64030003637572032904707265760329", "01030200000001000000030000000400000001080403706f73030105726f756e64030003637572032904707265760329"),
    ("renaming", "01010100000002000000030000000802017803290870726f706f73616c0300", "010302000000010000000300000004000000010802017803290870726f706f73616c0300"),
    ("mis-localmax", "01010100000002000000030000000802017803290974656e74617469766500", "010302000000010000000300000004000000010802017803290974656e74617469766500"),
    ("mis-eager", "01010100000002000000030000000802017803290974656e74617469766500", "010302000000010000000300000004000000010802017803290974656e74617469766500"),
    ("mis-impatient", "01010100000002000000030000000802017803290974656e74617469766500", "010302000000010000000300000004000000010802017803290974656e74617469766500"),
    ("decoupled-ring", "01010100000002000000030000000703070203000311070203010329070203040363", "010302000000010000000300000004000000010703070203000311070203010329070203040363"),
    ("alg3p Omega", "0101010000000200000003000000080501780329017206054f6d656761016103020162030301630301", "01030200000001000000030000000400000001080501780329017206054f6d656761016103020162030301630301"),
    ("alg3p Finite(u32::MAX)", "0101010000000200000003000000080501780329017208010646696e69746503ffffffff0f016103020162030301630301", "01030200000001000000030000000400000001080501780329017208010646696e69746503ffffffff0f016103020162030301630301"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The register's `write` (round 3, node 1 to 2) and `snapshot_resp`
/// (round 3, stamp 4, node 2 to 1), as typed messages.
fn messages<R>(reg: &R) -> [(usize, usize, Msg<&R>); 2] {
    [
        (
            1,
            2,
            Msg::Write {
                round: 3,
                value: reg,
            },
        ),
        (
            2,
            1,
            Msg::SnapshotResp {
                round: 3,
                value: Some(reg),
                stamp: 4,
            },
        ),
    ]
}

/// Both frames of `reg` as hex, written by the typed path, after
/// checking that the `Value`-tree path writes the same bytes and that
/// the typed decoder reads `reg` back.
fn frames_hex<R>(reg: &R) -> [String; 2]
where
    R: Serialize + Deserialize + Clone + PartialEq + Debug,
{
    messages(reg).map(|(src, dest, msg)| {
        let mut typed = Vec::new();
        encode_msg_into(src, dest, &msg, &mut typed);
        let mut tree = Vec::new();
        encode_frame_into(
            &Frame {
                src,
                dest,
                body: msg.to_body(),
            },
            &mut tree,
        );
        assert_eq!(hex(&typed), hex(&tree), "typed and tree paths differ");
        let (s, d, back) = decode_msg::<R>(&typed).expect("a pinned frame decodes");
        assert_eq!((s, d), (src, dest));
        assert_eq!(back, msg.map(R::clone));
        hex(&typed)
    })
}

/// The round-0 register `alg` publishes at node 1 for `input`.
fn first_register<A: Algorithm>(alg: &A, input: A::Input) -> A::Reg {
    alg.publish(&alg.init(ProcessId(1), input))
}

#[test]
fn register_frames_keep_their_bytes() {
    let reg3p = |r| Reg3P {
        x: 41,
        r,
        a: 2,
        b: 3,
        c: 1,
    };
    let cv = ColeVishkinThree::for_max_id(99);
    let cv_input = CvInput {
        x: 41,
        pos: 1,
        n: 5,
    };
    let gossip: Vec<(u64, u64)> = vec![(0, 17), (1, 41), (4, 99)];
    let got = [
        frames_hex(&first_register(&SixColoring, 41)),
        frames_hex(&first_register(&FiveColoring, 41)),
        frames_hex(&first_register(&FiveColoringPatched, 41)),
        frames_hex(&first_register(&FastFiveColoring, 41)),
        frames_hex(&first_register(&FastFiveColoringPatched, 41)),
        frames_hex(&first_register(&DeltaSquaredColoring, 41)),
        frames_hex(&first_register(&cv, cv_input)),
        frames_hex(&first_register(&RankRenaming, 41)),
        frames_hex(&first_register(&LocalMaxMis, 41)),
        frames_hex(&first_register(&EagerMis, 41)),
        frames_hex(&first_register(&ImpatientMis, 41)),
        frames_hex(&gossip),
        frames_hex(&reg3p(Rank::Omega)),
        frames_hex(&reg3p(Rank::Finite(u32::MAX))),
    ];
    for ((entry, write, resp), [w, r]) in PINS.iter().zip(got) {
        assert_eq!(&w, write, "{entry}: write frame");
        assert_eq!(&r, resp, "{entry}: snapshot_resp frame");
    }
}
