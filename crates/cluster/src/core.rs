//! The deterministic per-node state machine.
//!
//! [`NodeCore`] is the pure protocol brain of one cluster node: frames
//! in, frames out, no clocks, no I/O, no randomness. The live node
//! process (`crate::node`) wraps it in an event loop with wall-clock
//! retransmit timers; the trace replayer (`crate::replay`) runs one
//! in-process replica per node and checks that the recorded journal is
//! exactly what these state machines would have said. Because both
//! sides share this type, "the replica agrees with the journal" means
//! "the live processes ran this protocol" — the determinism lives
//! here, the nondeterminism (timing) stays outside.
//!
//! The round protocol mirrors the discrete-event simulator
//! (`ftcolor_net::sim`) line for line, minus the loopback hop: a real
//! process's own register lives in its own memory, so the write
//! applies immediately.
//!
//! 1. Round start: apply the own-register write (freshness stamp
//!    `round + 1`), then per neighbor broadcast a `write` and send a
//!    `snapshot_req`.
//! 2. Neighbor `write` broadcasts warm the mirror (stamp-monotone).
//! 3. `snapshot_req` is always answered — the register server role
//!    outlives the algorithm (a decided node keeps serving reads).
//! 4. When every neighbor's `snapshot_resp` for the current round is
//!    in, the round commits: per-neighbor view is the fresher of
//!    response and mirror, the algorithm steps, and the node either
//!    starts the next round or emits `decide`.

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use ftcolor_net::{Body, Decide, Frame, InitOk, SnapshotReq, SnapshotResp, Write, ORCHESTRATOR};
use serde::{Deserialize, Serialize, Value};

/// A register observation: `None` = never written, else the encoded
/// value and its freshness stamp (writer round + 1).
pub type Obs = Option<(Value, u64)>;

/// The freshness stamp of an observation (0 = never written).
pub fn obs_stamp(o: &Obs) -> u64 {
    o.as_ref().map_or(0, |(_, s)| *s)
}

/// The fresher of two register observations (higher stamp wins; a
/// response ties-or-beats a mirror of the same stamp).
pub fn fresher(resp: Obs, mirror: Obs) -> Obs {
    if obs_stamp(&mirror) > obs_stamp(&resp) {
        mirror
    } else {
        resp
    }
}

/// One node's protocol state machine: deterministic, I/O-free.
pub struct NodeCore<'a, A: Algorithm> {
    alg: &'a A,
    id: usize,
    neighbors: Vec<usize>,
    state: A::State,
    round: u64,
    rounds_committed: u64,
    /// The node's own SWMR register (the register-server storage).
    reg: Obs,
    /// Last `write` broadcast received per neighbor position.
    mirror: Vec<Obs>,
    /// Neighbor positions still owing a `snapshot_resp` this round.
    pending: Vec<bool>,
    /// Responses collected this round (outer `None` = not yet in).
    resp: Vec<Option<Obs>>,
    decided: Option<A::Output>,
}

impl<'a, A> NodeCore<'a, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
    A::Output: Serialize,
{
    /// Builds the state machine for node `id` with the given ring
    /// neighbors (in topology order) and algorithm input.
    pub fn new(alg: &'a A, id: usize, neighbors: Vec<usize>, input: A::Input) -> Self {
        let deg = neighbors.len();
        NodeCore {
            alg,
            id,
            neighbors,
            state: alg.init(ProcessId(id), input),
            round: 0,
            rounds_committed: 0,
            reg: None,
            mirror: vec![None; deg],
            pending: vec![false; deg],
            resp: vec![None; deg],
            decided: None,
        }
    }

    /// The current 0-based round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds committed so far.
    pub fn rounds_committed(&self) -> u64 {
        self.rounds_committed
    }

    /// The decided output, once the algorithm returned.
    pub fn decided(&self) -> Option<&A::Output> {
        self.decided.as_ref()
    }

    /// The register server's current contents.
    pub fn register(&self) -> &Obs {
        &self.reg
    }

    /// Acknowledges `init` and starts round 0. Returns the frames to
    /// put on the wire, in order: `init_ok`, then the first round's
    /// broadcasts and requests.
    pub fn start(&mut self) -> Vec<Frame> {
        let mut out = vec![Frame {
            src: self.id,
            dest: ORCHESTRATOR,
            body: Body::InitOk(InitOk { node: self.id }),
        }];
        out.extend(self.begin_round());
        out
    }

    /// Round start: apply the own write, broadcast it, request
    /// snapshots. (The simulator's loopback hop collapses to a direct
    /// register update — a real process owns its register's memory.)
    fn begin_round(&mut self) -> Vec<Frame> {
        let value = self.alg.publish(&self.state).to_value();
        let round = self.round;
        let stamp = round + 1;
        if stamp > obs_stamp(&self.reg) {
            self.reg = Some((value.clone(), stamp));
        }
        let mut out = Vec::with_capacity(2 * self.neighbors.len());
        for pos in 0..self.neighbors.len() {
            let q = self.neighbors[pos];
            out.push(Frame {
                src: self.id,
                dest: q,
                body: Body::Write(Write {
                    round,
                    value: value.clone(),
                }),
            });
            self.pending[pos] = true;
            self.resp[pos] = None;
            out.push(Frame {
                src: self.id,
                dest: q,
                body: Body::SnapshotReq(SnapshotReq { round }),
            });
        }
        out
    }

    /// The retransmit batch: a fresh `snapshot_req` for every neighbor
    /// still owing a response this round. Empty once decided (the
    /// register server needs no timers). Does not mutate state — the
    /// caller's timer policy decides how often to fire it.
    pub fn retransmits(&self) -> Vec<Frame> {
        if self.decided.is_some() {
            return Vec::new();
        }
        self.neighbors
            .iter()
            .enumerate()
            .filter(|(pos, _)| self.pending[*pos])
            .map(|(_, &q)| Frame {
                src: self.id,
                dest: q,
                body: Body::SnapshotReq(SnapshotReq { round: self.round }),
            })
            .collect()
    }

    /// Feeds one delivered frame through the state machine and returns
    /// the frames it sends in response. Unknown senders, stale rounds,
    /// duplicate responses, and control frames are ignored — a node
    /// must survive anything the network hands it.
    pub fn on_frame(&mut self, frame: &Frame) -> Vec<Frame> {
        match &frame.body {
            Body::Write(w) => {
                self.on_mirror_write(frame.src, w);
                Vec::new()
            }
            Body::SnapshotReq(r) => {
                // Register server role: always answer, even after the
                // algorithm returned — the final value stays readable.
                let (value, stamp) = match &self.reg {
                    Some((v, s)) => (Some(v.clone()), *s),
                    None => (None, 0),
                };
                vec![Frame {
                    src: self.id,
                    dest: frame.src,
                    body: Body::SnapshotResp(SnapshotResp {
                        round: r.round,
                        value,
                        stamp,
                    }),
                }]
            }
            Body::SnapshotResp(r) => self.on_resp(frame.src, r.clone()),
            // Control frames never reach the core: `init` is consumed
            // by the node's bootstrap, the rest are orchestrator-bound.
            Body::Init(_) | Body::InitOk(_) | Body::Decide(_) => Vec::new(),
        }
    }

    fn on_mirror_write(&mut self, src: usize, w: &Write) {
        let Some(pos) = self.neighbor_pos(src) else {
            return;
        };
        let stamp = w.round + 1;
        if stamp > obs_stamp(&self.mirror[pos]) {
            self.mirror[pos] = Some((w.value.clone(), stamp));
        }
    }

    fn on_resp(&mut self, src: usize, r: SnapshotResp) -> Vec<Frame> {
        if self.decided.is_some() || r.round != self.round {
            return Vec::new(); // stale round or post-decision duplicate
        }
        let Some(pos) = self.neighbor_pos(src) else {
            return Vec::new();
        };
        if !self.pending[pos] {
            return Vec::new(); // duplicate response: idempotent
        }
        let obs = r.value.map(|v| (v, r.stamp));
        self.resp[pos] = Some(obs);
        self.pending[pos] = false;
        if self.pending.iter().all(|p| !p) {
            self.commit_round()
        } else {
            Vec::new()
        }
    }

    /// All responses in: merge views, run the algorithm step.
    fn commit_round(&mut self) -> Vec<Frame> {
        let view: Vec<Option<A::Reg>> = (0..self.neighbors.len())
            .map(|pos| {
                let resp = self.resp[pos]
                    .clone()
                    .expect("commit only fires once every neighbor answered");
                let merged = fresher(resp, self.mirror[pos].clone());
                merged.map(|(v, _)| {
                    serde_json::from_value::<A::Reg>(v).expect("register payloads decode")
                })
            })
            .collect();
        let step = self.alg.step(&mut self.state, &Neighborhood::new(&view));
        self.rounds_committed += 1;
        match step {
            Step::Continue => {
                self.round += 1;
                self.begin_round()
            }
            Step::Return(o) => {
                let round = self.round;
                let output = o.to_value();
                self.decided = Some(o);
                vec![Frame {
                    src: self.id,
                    dest: ORCHESTRATOR,
                    body: Body::Decide(Decide { round, output }),
                }]
            }
        }
    }

    fn neighbor_pos(&self, who: usize) -> Option<usize> {
        self.neighbors.iter().position(|&q| q == who)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{FiveColoringPatched, SixColoring};
    use ftcolor_model::inputs;
    use std::collections::VecDeque;

    /// Drives a ring of cores to termination by hand-routing frames in
    /// FIFO order, round-tripping every frame through the JSON wire
    /// codec as the pipes would. Returns each node's decision.
    fn drive_ring<A>(alg: &A, ids: &[A::Input]) -> Vec<Option<A::Output>>
    where
        A: Algorithm,
        A::Input: Clone,
        A::Reg: Serialize + Deserialize,
        A::Output: Serialize + Clone,
    {
        let n = ids.len();
        let mut cores: Vec<NodeCore<A>> = (0..n)
            .map(|i| {
                // Neighbors in topology order, as the orchestrator sends them.
                let mut nb = vec![(i + n - 1) % n, (i + 1) % n];
                nb.sort_unstable();
                NodeCore::new(alg, i, nb, ids[i].clone())
            })
            .collect();
        let mut wire: VecDeque<Frame> = VecDeque::new();
        for c in &mut cores {
            wire.extend(c.start());
        }
        let mut hops = 0;
        while let Some(f) = wire.pop_front() {
            hops += 1;
            assert!(hops < 100_000, "protocol must terminate");
            let f = Frame::decode(&f.encode()).expect("wire round trip");
            if f.dest == ORCHESTRATOR {
                continue;
            }
            wire.extend(cores[f.dest].on_frame(&f));
        }
        cores.iter().map(|c| c.decided().cloned()).collect()
    }

    /// Rings of cores color properly: Algorithm 1 on `C3`, and
    /// Algorithm 2′ within its five colors on `C3` and `C16`.
    #[test]
    fn three_cores_color_a_triangle_free_cycle() {
        let outputs = drive_ring(&SixColoring, &[17, 4, 99]);
        assert!(outputs.iter().all(Option::is_some), "every node decides");
        for i in 0..3 {
            assert_ne!(outputs[i], outputs[(i + 1) % 3], "proper coloring");
        }
        for n in [3, 16] {
            let colors = drive_ring(&FiveColoringPatched, &inputs::random_unique(n, 10_000, 5));
            assert!(
                colors.iter().all(|c| matches!(c, Some(0..=4))),
                "C{n}: every node decides a color in 0..=4: {colors:?}"
            );
            assert!(
                (0..n).all(|i| colors[i] != colors[(i + 1) % n]),
                "C{n}: proper coloring: {colors:?}"
            );
        }
    }

    #[test]
    fn register_server_answers_before_and_after_deciding() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        // Before start: register never written.
        let out = core.on_frame(&Frame {
            src: 1,
            dest: 0,
            body: Body::SnapshotReq(SnapshotReq { round: 0 }),
        });
        let [Frame {
            body: Body::SnapshotResp(r),
            ..
        }] = out.as_slice()
        else {
            panic!("one snapshot_resp expected, got {out:?}");
        };
        assert_eq!(r.stamp, 0);
        assert!(r.value.is_none());
        // After start: the round-0 write is visible with stamp 1.
        core.start();
        let out = core.on_frame(&Frame {
            src: 1,
            dest: 0,
            body: Body::SnapshotReq(SnapshotReq { round: 0 }),
        });
        let [Frame {
            body: Body::SnapshotResp(r),
            ..
        }] = out.as_slice()
        else {
            panic!("one snapshot_resp expected");
        };
        assert_eq!(r.stamp, 1);
        assert!(r.value.is_some());
    }

    #[test]
    fn duplicate_and_stale_responses_are_ignored() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        core.start();
        let resp = |src: usize, round: u64| Frame {
            src,
            dest: 0,
            body: Body::SnapshotResp(SnapshotResp {
                round,
                value: None,
                stamp: 0,
            }),
        };
        assert!(core.on_frame(&resp(2, 7)).is_empty(), "stale round ignored");
        assert!(core.on_frame(&resp(2, 0)).is_empty(), "first resp pends");
        assert!(core.on_frame(&resp(2, 0)).is_empty(), "duplicate ignored");
        assert_eq!(core.rounds_committed(), 0, "commit needs all answers");
        let out = core.on_frame(&resp(1, 0));
        assert!(!out.is_empty(), "second resp commits the round");
        assert_eq!(core.rounds_committed(), 1);
    }

    #[test]
    fn retransmits_cover_exactly_the_pending_neighbors() {
        let alg = SixColoring;
        let mut core = NodeCore::new(&alg, 0, vec![2, 1], 5u64);
        assert!(core.retransmits().is_empty(), "nothing pending pre-start");
        core.start();
        assert_eq!(core.retransmits().len(), 2);
        core.on_frame(&Frame {
            src: 2,
            dest: 0,
            body: Body::SnapshotResp(SnapshotResp {
                round: 0,
                value: None,
                stamp: 0,
            }),
        });
        let rt = core.retransmits();
        assert_eq!(rt.len(), 1, "answered neighbor drops off the timer");
        assert_eq!(rt[0].dest, 1);
    }
}
