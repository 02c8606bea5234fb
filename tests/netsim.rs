//! Integration tests of the message-passing substrate's fault
//! machinery: partitions that heal (every correct process terminates
//! once retransmissions get through), partitions that never heal (only
//! the cut-adjacent processes stall), crash semantics (the co-located
//! register server outlives the process, as shared registers do in the
//! paper's model), heavy link-fault combinations, and golden tables
//! pinning every deterministic observable per codec.

use ftcolor::model::{inputs, ProcessId, Topology};
use ftcolor::net::trace::fnv1a;
use ftcolor::net::{
    replay_decoupled_net, replay_net, run_decoupled_net, run_net, Codec, DeliveryTrace, FaultPlan,
    NetConfig, Outcome, Partition, ReplayError, Sent, TraceEntry,
};
use ftcolor::prelude::*;
use serde::{Deserialize, Serialize};

/// A partition with a bounded window heals, retransmissions drain, and
/// every process terminates with a proper coloring — the substrate's
/// liveness machinery (per-neighbor retransmit timers) recovers without
/// any algorithm-level help.
#[test]
fn bounded_partition_heals_and_everyone_terminates() {
    let n = 8;
    let topo = Topology::cycle(n).unwrap();
    for seed in 0..4u64 {
        let ids = inputs::random_unique(n, 10_000, seed);
        let k = (seed as usize) % n;
        let plan = FaultPlan::default().with_partition(Partition::window(3, 120, vec![k]));
        let rep = run_net(
            &FiveColoringPatched,
            &topo,
            ids,
            &plan,
            &NetConfig::new(seed),
        );
        assert!(
            rep.all_returned(),
            "seed {seed}: stalled {:?} after the heal",
            rep.stalled
        );
        assert!(topo.is_proper_partial_coloring(&rep.outputs));
        assert!(rep.outputs.iter().flatten().all(|&c| c <= 4));
        assert!(
            rep.stats.partition_dropped > 0,
            "seed {seed}: the partition never cut anything"
        );
    }
}

/// A partition that never heals stalls exactly the processes that need
/// a register across the cut: the isolated node and its two ring
/// neighbors. Everyone else terminates properly — a stalled neighbor's
/// register is frozen, which the wait-free algorithms tolerate exactly
/// as they tolerate a crash.
#[test]
fn unhealed_partition_stalls_only_the_cut_closure() {
    let n = 8;
    let topo = Topology::cycle(n).unwrap();
    for seed in 0..4u64 {
        let ids = inputs::random_unique(n, 10_000, seed);
        let k = (seed as usize + 2) % n;
        let plan = FaultPlan::default().with_partition(Partition::forever(2, vec![k]));
        let cfg = NetConfig::new(seed).max_time(4_000);
        let rep = run_net(&FiveColoringPatched, &topo, ids, &plan, &cfg);

        let mut expected = vec![
            ProcessId((k + n - 1) % n),
            ProcessId(k),
            ProcessId((k + 1) % n),
        ];
        expected.sort_by_key(|p| p.index());
        let mut stalled = rep.stalled.clone();
        stalled.sort_by_key(|p| p.index());
        assert_eq!(
            stalled, expected,
            "seed {seed}: exactly the isolated node and its ring neighbors stall"
        );
        assert!(topo.is_proper_partial_coloring(&rep.outputs));
        for p in topo.nodes() {
            if !expected.contains(&p) {
                assert!(
                    rep.outputs[p.index()].is_some(),
                    "seed {seed}: {p} is outside the cut closure but never returned"
                );
            }
        }
    }
}

/// A crashed process stops taking steps, but its co-located register
/// server keeps answering — neighbors read its last published value and
/// terminate, exactly the paper's shared-memory crash semantics.
#[test]
fn crash_leaves_the_register_readable() {
    let n = 6;
    let topo = Topology::cycle(n).unwrap();
    for seed in 0..4u64 {
        let ids = inputs::random_unique(n, 10_000, seed);
        let k = (seed as usize) % n;
        let plan = FaultPlan::default().with_crash(k, 4);
        let rep = run_net(&SixColoring, &topo, ids, &plan, &NetConfig::new(seed));
        assert_eq!(rep.crashed, vec![ProcessId(k)], "seed {seed}");
        assert!(rep.stalled.is_empty(), "seed {seed}: {:?}", rep.stalled);
        for p in topo.nodes() {
            if p.index() != k {
                assert!(rep.outputs[p.index()].is_some(), "seed {seed}: {p} stalled");
            }
        }
        assert!(topo.is_proper_partial_coloring(&rep.outputs));
    }
}

/// Heavy link faults — drops, duplicates, reordering, and a wide delay
/// spread all at once — slow the run down but never change its outcome
/// class: every process returns a proper in-palette color.
#[test]
fn heavy_link_faults_only_cost_time() {
    let n = 10;
    let topo = Topology::cycle(n).unwrap();
    for seed in 0..4u64 {
        let ids = inputs::random_unique(n, 10_000, seed);
        let mut plan = FaultPlan::lossy(0.25);
        plan.duplicate = 0.15;
        plan.reorder = 0.2;
        plan.delay_max = 6;
        let rep = run_net(
            &FastFiveColoringPatched,
            &topo,
            ids,
            &plan,
            &NetConfig::new(seed),
        );
        assert!(rep.all_returned(), "seed {seed}: {:?}", rep.stalled);
        assert!(topo.is_proper_partial_coloring(&rep.outputs));
        assert!(rep.outputs.iter().flatten().all(|&c| c <= 4));
        assert!(
            rep.stats.dropped > 0,
            "seed {seed}: lossy plan dropped nothing"
        );
        assert!(
            rep.stats.retransmits > 0,
            "seed {seed}: drops without retransmissions cannot be live"
        );
    }
}

/// The isolated side of a never-healing partition is symmetric: cutting
/// a two-node side stalls the two nodes and their two outer neighbors.
#[test]
fn two_node_island_stalls_its_closure() {
    let n = 9;
    let topo = Topology::cycle(n).unwrap();
    let ids = inputs::random_unique(n, 10_000, 7);
    let plan = FaultPlan::default().with_partition(Partition::forever(2, vec![3, 4]));
    let cfg = NetConfig::new(7).max_time(4_000);
    let rep = run_net(&FiveColoringPatched, &topo, ids, &plan, &cfg);
    let mut stalled: Vec<usize> = rep.stalled.iter().map(|p| p.index()).collect();
    stalled.sort_unstable();
    assert_eq!(stalled, vec![2, 3, 4, 5]);
    assert!(topo.is_proper_partial_coloring(&rep.outputs));
}

/// Three corruptions of send `k` (the first delivered send at `t >= 2`):
/// a shifted send time, a delivery before the send, and a duplicate
/// before the send — each with the error a replay must name.
fn tampered(trace: &DeliveryTrace) -> Vec<(&'static str, DeliveryTrace, ReplayError)> {
    let entries: Vec<TraceEntry> = trace.entries.iter().collect();
    let k = entries
        .iter()
        .position(|e| e.t >= 2 && matches!(e.outcome, Outcome::Deliver { .. }))
        .expect("the run delivers something after t = 2");
    let e = &entries[k];
    let sent = Sent {
        kind: e.kind,
        from: e.from as usize,
        to: e.to as usize,
        t: e.t,
    };
    let edited = |edit: &dyn Fn(&mut TraceEntry)| -> DeliveryTrace {
        let mut entries = entries.clone();
        edit(&mut entries[k]);
        entries.into_iter().collect()
    };
    let shifted = edited(&|e| e.t += 1);
    let early = edited(&|e| e.outcome = Outcome::Deliver { at: e.t - 1 });
    let early_dup = edited(&|e| e.dup_at = Some(e.t - 1));
    let recorded = Sent { t: e.t + 1, ..sent };
    let back_dated = ReplayError::BackDated {
        seq: k,
        sent,
        at: e.t - 1,
    };
    vec![
        (
            "shifted send time",
            shifted,
            ReplayError::Diverged {
                seq: k,
                recorded,
                sent,
            },
        ),
        ("delivery before send", early, back_dated),
        ("duplicate before send", early_dup, back_dated),
    ]
}

/// A replayed trace must match every send's time, and no entry may
/// deliver (or duplicate) before its send: both simulators refuse such
/// a trace at the offending send with a typed error, instead of
/// misdelivering it or panicking.
#[test]
fn tampered_traces_are_rejected_by_both_replays() {
    let topo = Topology::cycle(8).unwrap();
    let ids = inputs::random_unique(8, 10_000, 3);
    let mut plan = FaultPlan::lossy(0.2);
    plan.duplicate = 0.1;
    let cfg = NetConfig::new(5);

    let rep = run_net(&SixColoring, &topo, ids.clone(), &plan, &cfg);
    for (what, trace, want) in tampered(&rep.trace) {
        let err = replay_net(&SixColoring, &topo, ids.clone(), &plan, &cfg, &trace)
            .expect_err("a tampered trace must not replay");
        assert_eq!(err, want, "replay_net, {what}");
        assert!(err
            .to_string()
            .starts_with("replay trace diverged at send #"));
    }
    let short: DeliveryTrace = rep.trace.entries.iter().take(5).collect();
    let err = replay_net(&SixColoring, &topo, ids.clone(), &plan, &cfg, &short)
        .expect_err("a truncated trace must not replay");
    assert!(
        matches!(err, ReplayError::Exhausted { seq: 5, .. }),
        "{err}"
    );

    let alg = DecoupledThreeColoring::new();
    let rep = run_decoupled_net(&alg, &topo, ids.clone(), &plan, &cfg);
    let again = replay_decoupled_net(&alg, &topo, ids.clone(), &plan, &cfg, &rep.trace)
        .expect("an untouched trace replays");
    assert_eq!(again.outputs, rep.outputs, "an untouched trace replays");
    assert_eq!(again.trace, rep.trace);
    for (what, trace, want) in tampered(&rep.trace) {
        let err = replay_decoupled_net(&alg, &topo, ids.clone(), &plan, &cfg, &trace)
            .expect_err("a tampered trace must not replay");
        assert_eq!(err, want, "replay_decoupled_net, {what}");
    }
}

/// One `(algorithm, topology, plan)` row of the golden matrix: the
/// observables every codec must reproduce, then `bytes_on_wire` per
/// codec (json/binary).
fn golden_row<A>(
    name: &str,
    alg: &A,
    topo: &Topology,
    plan: &FaultPlan,
    dead_reads: &mut u64,
) -> String
where
    A: Algorithm<Input = u64>,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize,
{
    let digest = |s: String| fnv1a(s.as_bytes());
    let ids = inputs::random_unique(topo.len(), 10_000, 7);
    let mut shared: Option<String> = None;
    let mut bytes = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let cfg = NetConfig::new(7).record_events(true).codec(codec);
        let rep = run_net(alg, topo, ids.clone(), plan, &cfg);
        let s = rep.stats;
        let line = format!(
            "trace={:016x} outputs={:016x} rounds={:016x} stats={}/{}/{}/{}/{}/{}/{}/{}/{} \
             time={} events={:016x}",
            rep.trace.digest(),
            digest(serde_json::to_string(&rep.outputs).expect("outputs encode")),
            digest(format!("{:?}", rep.rounds)),
            s.sent,
            s.delivered,
            s.dropped,
            s.partition_dropped,
            s.duplicated,
            s.retransmits,
            s.loopback_writes,
            s.served_dead_reads,
            s.events_processed,
            rep.time,
            digest(format!("{:?}", rep.events)),
        );
        match &shared {
            None => {
                *dead_reads += s.served_dead_reads;
                shared = Some(line);
            }
            Some(first) => assert_eq!(&line, first, "{name}: {codec:?} diverges from json"),
        }
        bytes.push(rep.wire.bytes_on_wire.to_string());
    }
    format!(
        "{name} {} wire={}",
        shared.expect("both codecs ran"),
        bytes.join("/")
    )
}

/// Golden matrix over {alg1, alg2p, alg3p} × {C5, C12} plus alg1 on a
/// mixed-degree graph (degrees 1 to 4), under four plans (clean; lossy
/// with duplicates and reordering; one partition window; one crash) and
/// both codecs. Every constant was captured from the simulator
/// that stored registers as `Value` trees, so it pins the typed
/// register store to exactly the same trace, coloring, rounds,
/// counters, clock, event log and wire bytes.
#[test]
fn golden_matrix_pins_every_observable() {
    let mixed = Topology::from_edges(
        8,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (3, 5),
            (5, 6),
            (4, 6),
            (2, 7),
        ],
    )
    .unwrap();
    let c5 = Topology::cycle(5).unwrap();
    let c12 = Topology::cycle(12).unwrap();
    let mut lossy = FaultPlan::lossy(0.2);
    lossy.duplicate = 0.1;
    lossy.reorder = 0.15;
    let plans = [
        ("clean", FaultPlan::default()),
        ("lossy", lossy),
        (
            "partition",
            FaultPlan::default().with_partition(Partition::window(3, 60, vec![1])),
        ),
        ("crash", FaultPlan::default().with_crash(2, 5)),
    ];
    let mut actual = Vec::new();
    let mut dead_reads = 0;
    for (pname, plan) in &plans {
        for (tname, topo) in [("C5", &c5), ("C12", &c12)] {
            actual.push(golden_row(
                &format!("alg1/{tname}/{pname}"),
                &SixColoring,
                topo,
                plan,
                &mut dead_reads,
            ));
            actual.push(golden_row(
                &format!("alg2p/{tname}/{pname}"),
                &FiveColoringPatched,
                topo,
                plan,
                &mut dead_reads,
            ));
            actual.push(golden_row(
                &format!("alg3p/{tname}/{pname}"),
                &FastFiveColoringPatched,
                topo,
                plan,
                &mut dead_reads,
            ));
        }
        actual.push(golden_row(
            &format!("alg1/G8/{pname}"),
            &SixColoring,
            &mixed,
            plan,
            &mut dead_reads,
        ));
    }
    assert_eq!(
        actual,
        GOLDEN,
        "golden matrix moved; actual rows:\n{}",
        actual.join("\n")
    );
    assert!(
        dead_reads > 0,
        "the crash plans must exercise dead register servers"
    );
}

/// `DeliveryTrace::digest` renders and hashes a trace one entry at a
/// time; on every trace of the golden matrix (the same algorithms,
/// topologies, plans and seed as `golden_matrix_pins_every_observable`)
/// it equals the FNV-1a of the whole canonical JSON.
#[test]
fn streamed_trace_digests_hash_the_canonical_json() {
    fn check<A>(alg: &A, topo: &Topology, plan: &FaultPlan)
    where
        A: Algorithm<Input = u64>,
        A::Reg: Serialize + Deserialize,
    {
        let ids = inputs::random_unique(topo.len(), 10_000, 7);
        let cfg = NetConfig::new(7).record_events(true);
        let trace = run_net(alg, topo, ids, plan, &cfg).trace;
        assert_eq!(trace.digest(), fnv1a(trace.to_json().as_bytes()));
    }
    let mixed = Topology::from_edges(
        8,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (3, 5),
            (5, 6),
            (4, 6),
            (2, 7),
        ],
    )
    .unwrap();
    let mut lossy = FaultPlan::lossy(0.2);
    lossy.duplicate = 0.1;
    lossy.reorder = 0.15;
    let plans = [
        FaultPlan::default(),
        lossy,
        FaultPlan::default().with_partition(Partition::window(3, 60, vec![1])),
        FaultPlan::default().with_crash(2, 5),
    ];
    for plan in &plans {
        for n in [5, 12] {
            let topo = Topology::cycle(n).unwrap();
            check(&SixColoring, &topo, plan);
            check(&FiveColoringPatched, &topo, plan);
            check(&FastFiveColoringPatched, &topo, plan);
        }
        check(&SixColoring, &mixed, plan);
    }
}

const GOLDEN: &[&str] = &[
    "alg1/C5/clean trace=8812435f6ff374e8 outputs=a16c42210fa1b8b0 rounds=26441b3831fb962d stats=72/72/0/0/0/0/12/0/112 time=26 events=0e265e3ed3383131 wire=6980/2653",
    "alg2p/C5/clean trace=670a7be13e1c01bc outputs=87bf404a37f27dff rounds=3611e45815cf11a0 stats=102/102/0/0/0/0/17/0/166 time=44 events=4c8e985f51133109 wire=9564/3432",
    "alg3p/C5/clean trace=1ea5269c853e175b outputs=5154a815e072c5cf rounds=a0a6ae2dc3088961 stats=108/108/0/0/0/0/18/0/176 time=50 events=a3dacd58d62b5b42 wire=11389/4645",
    "alg1/C12/clean trace=b0f853b1d60287f8 outputs=a6ede52d2dcd9d3f rounds=3314cda741d7c3bf stats=156/156/0/0/0/0/26/0/234 time=24 events=cd8e713f30dac586 wire=15184/5752",
    "alg2p/C12/clean trace=91644f20a78c4c23 outputs=5543feec2986bd08 rounds=cad7cdd0349eebc2 stats=210/210/0/0/0/0/35/0/328 time=32 events=582a62edea0e8be5 wire=19765/7067",
    "alg3p/C12/clean trace=7b778adac6ae148c outputs=5e66f775f1afe335 rounds=8dece7984ceddf6d stats=204/204/0/0/0/0/34/0/320 time=32 events=6091741f610eb9c9 wire=21528/8706",
    "alg1/G8/clean trace=ddb08e1e573ca921 outputs=58557c16df0e932c rounds=bdf1985113245048 stats=132/132/0/0/0/0/19/0/199 time=28 events=73d77064906db536 wire=12528/4749",
    "alg1/C5/lossy trace=7a6c11d616f955db outputs=b36f23ade84e34df rounds=97f8bd2aa0229bd9 stats=74/56/18/0/6/9/10/0/108 time=61 events=b2678bc6c56541c7 wire=5918/2209",
    "alg2p/C5/lossy trace=23f1ad69b45e94f2 outputs=bbbc83be08f79d41 rounds=a7019674c5b6c6ac stats=114/90/24/0/9/13/15/0/171 time=99 events=2b81cbe84aa22874 wire=9030/3173",
    "alg3p/C5/lossy trace=3fc83a9b17d32f9d outputs=bfec9a1eab532fa2 rounds=b504c4d569fc43d9 stats=125/97/28/0/9/17/16/0/186 time=113 events=f930893fce4450f4 wire=10719/4256",
    "alg1/C12/lossy trace=1c297661865f9a56 outputs=57a4e31a5e0f0559 rounds=348c3b65d4acb973 stats=180/137/43/0/9/34/22/0/265 time=99 events=b26fed07bae97b3f wire=13655/5058",
    "alg2p/C12/lossy trace=13647062763454e6 outputs=63e49aea148efe3d rounds=e52563499184d193 stats=233/179/54/0/11/35/30/0/342 time=111 events=84b066b63f18c287 wire=17347/6061",
    "alg3p/C12/lossy trace=52cf7414878a17f5 outputs=5d6f104e7dfd57f6 rounds=e8029e3e91fd753d stats=280/217/63/0/15/43/36/0/418 time=159 events=8c26a44525106ef0 wire=23567/9320",
    "alg1/G8/lossy trace=b6af23773577623d outputs=eeb335d2acc6d1db rounds=b26613fd7e3f8b20 stats=144/109/35/0/9/25/15/0/206 time=109 events=eeec344f7a0ab5a6 wire=10680/3930",
    "alg1/C5/partition trace=ef6c2ba043537f66 outputs=ca7b986ff4c62e68 rounds=26441b3831fb962d stats=90/72/0/18/0/16/12/0/126 time=80 events=90a8541791e6f1ed wire=6912/2607",
    "alg2p/C5/partition trace=c0d20eef4ace7831 outputs=87c9804a37fb3f44 rounds=c12597eec7792569 stats=126/108/0/18/0/16/18/0/188 time=89 events=4ba815c8091a8609 wire=10068/3597",
    "alg3p/C5/partition trace=88c78dadb37bd375 outputs=515b6c15e0787e89 rounds=324e281ffcecb74b stats=102/84/0/18/0/16/14/0/146 time=80 events=57294432b5c01f49 wire=8798/3577",
    "alg1/C12/partition trace=ef89a7cd1739ec46 outputs=70bb39c4bc085e9a rounds=d80d602b32358c4c stats=168/150/0/18/0/16/25/0/256 time=79 events=1f6d5e594d02866e wire=14532/5483",
    "alg2p/C12/partition trace=26aca0b540859515 outputs=2bf3a479c28c1866 rounds=34b69f1a9f3fd1df stats=198/180/0/18/0/16/30/0/306 time=81 events=032a7ce9ed2474b6 wire=16882/6014",
    "alg3p/C12/partition trace=26aca0b540859515 outputs=2bf3a479c28c1866 rounds=34b69f1a9f3fd1df stats=198/180/0/18/0/16/30/0/306 time=81 events=032a7ce9ed2474b6 wire=18986/7688",
    "alg1/G8/partition trace=ac926c900e20313a outputs=e72268eecabb9b23 rounds=7fe40422bfe8f811 stats=126/108/0/18/0/16/16/0/181 time=82 events=93f5516a7e50f2af wire=10212/3848",
    "alg1/C5/crash trace=b2e33458a6e081e3 outputs=aeb20d5f0e4a455e rounds=0f34aaf4317a77ec stats=60/60/0/0/0/0/10/4/91 time=25 events=5f4723f36c103e5d wire=5812/2207",
    "alg2p/C5/crash trace=a345653f55ef1429 outputs=59408a6f59efb2d2 rounds=640cc320fc27a0cc stats=84/84/0/0/0/0/14/5/137 time=43 events=71283f97b6843bcf wire=7872/2823",
    "alg3p/C5/crash trace=10e36d4b2e9be18d outputs=59408a6f59efb2d2 rounds=640a0720fc25de81 stats=78/78/0/0/0/0/13/5/127 time=37 events=764f1c2136d71a99 wire=8281/3395",
    "alg1/C12/crash trace=c69a40a62b07a73f outputs=7fb80e9a62ef05d2 rounds=79c906b06948c671 stats=150/150/0/0/0/0/25/4/227 time=24 events=56d39c5e8369cc5c wire=14600/5529",
    "alg2p/C12/crash trace=8420039d058be083 outputs=da210b41cd44218d rounds=70d4897614eb15c7 stats=198/198/0/0/0/0/33/5/317 time=33 events=cb6b3d36751ea272 wire=18640/6661",
    "alg3p/C12/crash trace=134b3deaf212c697 outputs=42639e7f8f9c0e40 rounds=809b475c024a3590 stats=192/192/0/0/0/0/32/5/297 time=28 events=ed0fe81165a4ca06 wire=20295/8214",
    "alg1/G8/crash trace=ac2201ba49fc2cbc outputs=c052cf5cb47fb211 rounds=41ac4d1c537694ed stats=117/117/0/0/0/0/17/5/179 time=29 events=bb06bc61b97d520e wire=11112/4210",
];

/// One `(topology, plan)` row of the DECOUPLED gossip matrix: the
/// observables both codecs must reproduce, then `bytes_on_wire` per
/// codec (json/binary).
fn decoupled_golden_row(name: &str, topo: &Topology, plan: &FaultPlan) -> String {
    let digest = |s: String| fnv1a(s.as_bytes());
    let alg = DecoupledThreeColoring::new();
    let ids = inputs::random_unique(topo.len(), 10_000, 7);
    let mut shared: Option<String> = None;
    let mut bytes = Vec::new();
    for codec in [Codec::Json, Codec::Binary] {
        let cfg = NetConfig::new(7).codec(codec);
        let rep = run_decoupled_net(&alg, topo, ids.clone(), plan, &cfg);
        let s = rep.stats;
        let line = format!(
            "trace={:016x} outputs={:016x} max_rounds={} stats={}/{}/{}/{}/{} \
             events={} time={}",
            rep.trace.digest(),
            digest(serde_json::to_string(&rep.outputs).expect("outputs encode")),
            rep.rounds.iter().copied().max().unwrap_or(0),
            s.sent,
            s.delivered,
            s.dropped,
            s.partition_dropped,
            s.duplicated,
            s.events_processed,
            rep.time,
        );
        match &shared {
            None => shared = Some(line),
            Some(first) => assert_eq!(&line, first, "{name}: {codec:?} diverges from json"),
        }
        bytes.push(rep.wire.bytes_on_wire.to_string());
    }
    format!(
        "{name} {} wire={}",
        shared.expect("both codecs ran"),
        bytes.join("/")
    )
}

/// Golden matrix of the DECOUPLED gossip simulator (`decoupled-ring`)
/// on {C5, C12} under the four plans of the register-protocol matrix
/// and both codecs: trace digest, coloring, max rounds, counters,
/// processed events and clock.
#[test]
fn decoupled_golden_matrix_pins_every_observable() {
    let mut lossy = FaultPlan::lossy(0.2);
    lossy.duplicate = 0.1;
    lossy.reorder = 0.15;
    let plans = [
        ("clean", FaultPlan::default()),
        ("lossy", lossy),
        (
            "partition",
            FaultPlan::default().with_partition(Partition::window(3, 60, vec![1])),
        ),
        ("crash", FaultPlan::default().with_crash(2, 5)),
    ];
    let mut actual = Vec::new();
    for (pname, plan) in &plans {
        for n in [5, 12] {
            let topo = Topology::cycle(n).unwrap();
            actual.push(decoupled_golden_row(
                &format!("decoupled-ring/C{n}/{pname}"),
                &topo,
                plan,
            ));
        }
    }
    assert_eq!(
        actual,
        DECOUPLED_GOLDEN,
        "decoupled golden matrix moved; actual rows:\n{}",
        actual.join("\n")
    );
}

const DECOUPLED_GOLDEN: &[&str] = &[
    "decoupled-ring/C5/clean trace=bf710f14e0018b9d outputs=7dcc7caea6f94987 max_rounds=4 stats=50/50/0/0/0 events=67 time=8 wire=4200/1850",
    "decoupled-ring/C12/clean trace=b88061f3ae1491c8 outputs=5fcf00abdf988ed8 max_rounds=7 stats=240/240/0/0/0 events=319 time=16 wire=27355/14228",
    "decoupled-ring/C5/lossy trace=0d81fc648f4fb900 outputs=7dcc7caea6f94987 max_rounds=6 stats=42/31/11/0/2 events=54 time=13 wire=2781/1228",
    "decoupled-ring/C12/lossy trace=645eb6f0b30873b6 outputs=5fcf00abdf988ed8 max_rounds=10 stats=226/173/53/0/11 events=304 time=24 wire=21350/11169",
    "decoupled-ring/C5/partition trace=8f13d842123db79a outputs=7dcc7caea6f94987 max_rounds=31 stats=88/65/0/23/0 events=131 time=68 wire=5869/2720",
    "decoupled-ring/C12/partition trace=139ac5ff76157527 outputs=5fcf00abdf988ed8 max_rounds=25 stats=342/310/0/32/0 events=473 time=68 wire=39511/21564",
    "decoupled-ring/C5/crash trace=bf710f14e0018b9d outputs=1768b597f2906fba max_rounds=4 stats=50/50/0/0/0 events=68 time=8 wire=4200/1850",
    "decoupled-ring/C12/crash trace=2236de19cc77d4a0 outputs=516bdd5ddcdd5f35 max_rounds=7 stats=264/264/0/0/0 events=333 time=18 wire=31371/16628",
];

/// The E19 workload's quick cells: Algorithm 3′ on the `staircase_poly`
/// ring, seed 7, n ∈ {100, 1000}, {clean, 10% lossy} × {json, binary}.
/// Columns: n, plan, codec, sent, delivered, events, max rounds, trace
/// digest, proper, all correct returned, wire bytes.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const E19_QUICK: &[(usize, &str, &str, u64, u64, u64, u64, &str, bool, bool, u64)] = &[
    (100, "clean", "json", 1944, 1944, 3230, 7, "d19e88d3bdf4c0fa", true, true, 209738),
    (100, "clean", "binary", 1944, 1944, 3230, 7, "d19e88d3bdf4c0fa", true, true, 84138),
    (100, "lossy-10%", "json", 1954, 1764, 3071, 5, "5ea8fb4725536320", true, true, 188705),
    (100, "lossy-10%", "binary", 1954, 1764, 3071, 5, "5ea8fb4725536320", true, true, 75049),
    (1000, "clean", "json", 18828, 18828, 31296, 6, "fe0bf93b5f3f1ad3", true, true, 2101962),
    (1000, "clean", "binary", 18828, 18828, 31296, 6, "fe0bf93b5f3f1ad3", true, true, 826714),
    (1000, "lossy-10%", "json", 20677, 18547, 32337, 8, "9448a7c2e77364ad", true, true, 2046502),
    (1000, "lossy-10%", "binary", 20677, 18547, 32337, 8, "9448a7c2e77364ad", true, true, 798198),
];

/// Pins every deterministic outcome of the E19 quick cells. The two
/// codecs share everything but `wire_bytes`, so one drifted digest
/// fails two rows.
#[test]
fn e19_quick_cells_are_pinned() {
    let mut actual = Vec::new();
    for n in [100, 1000] {
        let topo = Topology::cycle(n).unwrap();
        for (plan_name, plan) in [
            ("clean", FaultPlan::clean()),
            ("lossy-10%", FaultPlan::lossy(0.10)),
        ] {
            for codec in [Codec::Json, Codec::Binary] {
                let cfg = NetConfig::new(7).codec(codec);
                let rep = run_net(
                    &FastFiveColoringPatched,
                    &topo,
                    inputs::staircase_poly(n),
                    &plan,
                    &cfg,
                );
                actual.push((
                    n,
                    plan_name,
                    codec.name(),
                    rep.stats.sent,
                    rep.stats.delivered,
                    rep.stats.events_processed,
                    rep.rounds.iter().copied().max().unwrap_or(0),
                    format!("{:016x}", rep.trace.digest()),
                    topo.is_proper_partial_coloring(&rep.outputs),
                    rep.all_correct_returned(),
                    rep.wire.bytes_on_wire,
                ));
            }
        }
    }
    let expected: Vec<_> = E19_QUICK
        .iter()
        .map(|&(n, p, c, s, d, e, r, digest, proper, ret, w)| {
            (n, p, c, s, d, e, r, digest.to_string(), proper, ret, w)
        })
        .collect();
    assert_eq!(actual, expected);
}
