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
//! The round itself is [`ftcolor_net::protocol`]'s machine, the one the
//! discrete-event simulator runs too. `NodeCore` owns the parts the
//! machine borrows and adds the node's share: the own write applies at
//! once (a real process's register lives in its own memory, so there is
//! no loopback hop), retransmits go out as one batch per wall-clock
//! timer tick, and the node speaks `init_ok` and `decide` to the
//! orchestrator.

use ftcolor_model::{Algorithm, ProcessId, Step};
use ftcolor_net::{
    Body, Decide, Frame, Init, InitOk, Link, Machine, Outbox, Proc, RegisterError, Tree,
    ORCHESTRATOR,
};
use serde::{Deserialize, Serialize};

/// Checks an `init` delivered to node `dest` for the one shape the
/// orchestrator sends: addressed to `dest`, `dest < n`, `n >= 3`, and
/// the node's two ring neighbors in ascending order. The ring colorings
/// step on exactly two neighbors, so any other `init` is refused.
///
/// # Errors
///
/// A message naming what is wrong.
pub fn check_init(dest: usize, init: &Init) -> Result<(), String> {
    let (node, n) = (init.node, init.n);
    if node != dest {
        return Err(format!("init for node {node} delivered to {dest}"));
    }
    let ring = n >= 3 && node < n && {
        let mut ring = [node.checked_sub(1).unwrap_or(n - 1), (node + 1) % n];
        ring.sort_unstable();
        init.neighbors == ring
    };
    if !ring {
        let got = &init.neighbors;
        return Err(format!(
            "init for node {node} of a {n}-ring lists neighbors {got:?}"
        ));
    }
    Ok(())
}

/// One node's protocol state machine: deterministic, I/O-free.
pub struct NodeCore<'a, A: Algorithm> {
    alg: &'a A,
    id: usize,
    neighbors: Vec<ProcessId>,
    proc: Proc<A::Reg>,
    state: A::State,
    links: Vec<Link<A::Reg>>,
    view: Vec<Option<A::Reg>>,
    decided: Option<A::Output>,
}

impl<A: Algorithm> NodeCore<'_, A> {
    /// The current 0-based round number.
    pub fn round(&self) -> u64 {
        self.proc.round
    }

    /// The decided output, once the algorithm returned.
    pub fn decided(&self) -> Option<&A::Output> {
        self.decided.as_ref()
    }

    /// Whether `node` is one of this node's neighbors.
    pub fn is_neighbor(&self, node: usize) -> bool {
        self.neighbors.contains(&ProcessId(node))
    }
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
        NodeCore {
            alg,
            id,
            links: neighbors.iter().map(|_| Link::default()).collect(),
            view: Vec::with_capacity(neighbors.len()),
            neighbors: neighbors.into_iter().map(ProcessId).collect(),
            proc: Proc::default(),
            state: alg.init(ProcessId(id), input),
            decided: None,
        }
    }

    fn machine(&mut self) -> Machine<'_, A> {
        Machine {
            alg: self.alg,
            id: self.id,
            neighbors: &self.neighbors,
            proc: &mut self.proc,
            state: &mut self.state,
            links: &mut self.links,
            view: &mut self.view,
        }
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
        let step = self.machine().begin_round(&mut out);
        self.settle(step, &mut out);
        out
    }

    /// The retransmit batch: a fresh `snapshot_req` for every neighbor
    /// still owing a response this round. Empty once decided (the
    /// register server needs no timers). Changes no state — the
    /// caller's timer policy decides how often to fire it.
    pub fn retransmits(&mut self) -> Vec<Frame> {
        let (mut out, round, m) = (Vec::new(), self.proc.round, self.machine());
        for (pos, q) in m.neighbors.iter().enumerate() {
            if m.owes(pos, round) {
                Outbox::<A::Reg>::request(&mut out, m.id, pos, q.index(), round);
            }
        }
        out
    }

    /// Feeds one delivered frame through the state machine and returns
    /// the frames it sends in response. Unknown senders, stale rounds,
    /// duplicate responses, and control frames are ignored — a node
    /// must survive anything the network hands it. The frame's register
    /// stays a `Value` tree until the machine keeps it.
    ///
    /// # Errors
    ///
    /// A `write` or `snapshot_resp` whose register does not decode; the
    /// node is left as it was, so dropping the frame is always safe.
    pub fn on_frame(&mut self, frame: &Frame) -> Result<Vec<Frame>, RegisterError> {
        let mut out = Vec::new();
        let Some(msg) = frame.body.msg() else {
            return Ok(out);
        };
        let msg = msg.map(|v| Tree(v.clone()));
        let step = self.machine().on_msg(frame.src, msg, &mut out)?;
        self.settle(step, &mut out);
        Ok(out)
    }

    /// Carries a committed round on: the next round starts at once, or
    /// the decision goes to the orchestrator.
    fn settle(&mut self, mut step: Option<Step<A::Output>>, out: &mut Vec<Frame>) {
        while let Some(s) = step.take() {
            step = match s {
                Step::Continue => self.machine().begin_round(out),
                Step::Return(o) => {
                    let round = self.proc.round;
                    out.push(Frame {
                        src: self.id,
                        dest: ORCHESTRATOR,
                        body: Body::Decide(Decide {
                            round,
                            output: o.to_value(),
                        }),
                    });
                    self.decided = Some(o);
                    None
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcolor_core::{FiveColoringPatched, SixColoring};
    use ftcolor_model::inputs;
    use ftcolor_net::{SnapshotReq, SnapshotResp};
    use std::collections::VecDeque;

    impl<A: Algorithm> NodeCore<'_, A> {
        /// Rounds committed so far.
        fn rounds_committed(&self) -> u64 {
            self.proc.round + u64::from(self.decided.is_some())
        }
    }

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
            wire.extend(cores[f.dest].on_frame(&f).expect("honest frames decode"));
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
        let out = core
            .on_frame(&Frame {
                src: 1,
                dest: 0,
                body: Body::SnapshotReq(SnapshotReq { round: 0 }),
            })
            .expect("a request carries no register");
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
        let out = core
            .on_frame(&Frame {
                src: 1,
                dest: 0,
                body: Body::SnapshotReq(SnapshotReq { round: 0 }),
            })
            .expect("a request carries no register");
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
        let ok = "an empty register decodes";
        assert!(
            core.on_frame(&resp(2, 7)).expect(ok).is_empty(),
            "stale round ignored"
        );
        assert!(
            core.on_frame(&resp(2, 0)).expect(ok).is_empty(),
            "first resp pends"
        );
        assert!(
            core.on_frame(&resp(2, 0)).expect(ok).is_empty(),
            "duplicate ignored"
        );
        assert_eq!(core.rounds_committed(), 0, "commit needs all answers");
        let out = core.on_frame(&resp(1, 0)).expect(ok);
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
        })
        .expect("an empty register decodes");
        let rt = core.retransmits();
        assert_eq!(rt.len(), 1, "answered neighbor drops off the timer");
        assert_eq!(rt[0].dest, 1);
    }
}
