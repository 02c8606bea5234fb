//! The register protocol: the one implementation of the paper's §2
//! state model over message passing, run by both the discrete-event
//! simulator ([`crate::sim`]) and the real-process cluster node
//! (`ftcolor-cluster`'s `NodeCore`).
//!
//! Every process owns a single-writer register, held by a co-located
//! register server, and reads its neighbors' registers with one
//! snapshot per round. A round of the [`Machine`]:
//!
//! 1. **Publish.** The process encodes `publish(state)` as a `write`.
//! 2. **Own write.** The write lands in the process's own [`Slot`]
//!    (stamp `round + 1`). Then, per neighbor, the same `write` is
//!    broadcast (mirror warm-up; its loss is harmless) and a
//!    `snapshot_req` goes out through [`Outbox::request`].
//! 3. **Serve and collect.** A `snapshot_req` is always answered from
//!    the slot, even after the process returned or crashed: registers
//!    outlive their processes. Neighbor `write`s warm the [`Link`]
//!    mirrors, and each neighbor's first `snapshot_resp` of the round
//!    fills its link; duplicates and stale rounds are ignored.
//! 4. **Commit.** Once every neighbor answered, the view per neighbor is
//!    the fresher of response and mirror (a value the register held at
//!    or after the request, so still a regular-register read), collected
//!    in a reused buffer, and `Algorithm::step` runs.
//!
//! Reads therefore always linearize after the process's own write, and
//! final register values of returned processes stay readable — the two
//! properties the paper's safety arguments need.
//!
//! Register payloads are decoded once, on delivery, into typed slots (a
//! mirror only when its stamp is fresher). A payload that does not
//! decode is a [`RegisterError`] and leaves the machine as it was.
//!
//! The machine keeps no clock and does no I/O. A driver lends it one
//! process's parts for one event and an [`Outbox`] to send through; the
//! event loop, timers, crashes and the wire stay with the driver.

use std::fmt;

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use serde::{Deserialize, Serialize, Value};

use crate::msg::{Body, Frame, SnapshotReq, SnapshotResp, Write};

/// A register observation: the freshest value seen and its stamp
/// (writer round + 1; an empty slot has stamp 0, never written).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot<R>(Option<(R, u64)>);

impl<R> Default for Slot<R> {
    fn default() -> Self {
        Slot(None)
    }
}

impl<R: Clone + Serialize + Deserialize> Slot<R> {
    /// The freshness stamp (0 = never written).
    pub fn stamp(&self) -> u64 {
        self.0.as_ref().map_or(0, |(_, s)| *s)
    }

    /// The stored value, if the register was ever written.
    pub fn value(&self) -> Option<&R> {
        self.0.as_ref().map(|(v, _)| v)
    }

    /// Applies `src`'s `write`: decodes and keeps its value only when its
    /// stamp is fresher than the slot's, so reordered or duplicated
    /// writes never roll the slot back and a stale payload is never
    /// decoded.
    ///
    /// # Errors
    ///
    /// A kept payload that does not decode as `R`; the slot is unchanged.
    pub fn apply(&mut self, src: usize, w: &Write) -> Result<(), RegisterError> {
        let stamp = w.round + 1;
        if stamp > self.stamp() {
            self.0 = Some((decode(src, "write", &w.value)?, stamp));
        }
        Ok(())
    }

    /// The register server's answer to a `snapshot_req` of `round`.
    pub fn answer(&self, round: u64) -> SnapshotResp {
        SnapshotResp {
            round,
            value: self.value().map(Serialize::to_value),
            stamp: self.stamp(),
        }
    }

    /// The view of a committed round: this response, unless the mirror
    /// is strictly fresher (a response ties-or-beats a mirror of the same
    /// stamp). The mirror persists, so it is cloned only when it wins,
    /// which on a healthy link it never does.
    fn merge(self, mirror: &Slot<R>) -> Option<R> {
        if mirror.stamp() > self.stamp() {
            mirror.value().cloned()
        } else {
            self.0.map(|(v, _)| v)
        }
    }
}

/// A `write` or `snapshot_resp` whose register payload does not decode
/// into the algorithm's register type.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterError {
    /// The frame's sender.
    pub src: usize,
    /// The message that carried the payload.
    pub kind: &'static str,
    /// The decoder's complaint.
    pub error: serde::Error,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RegisterError { src, kind, error } = self;
        write!(
            f,
            "`{kind}` from node {src} carries an undecodable register: {error}"
        )
    }
}

impl std::error::Error for RegisterError {}

fn decode<R: Deserialize>(src: usize, kind: &'static str, v: &Value) -> Result<R, RegisterError> {
    R::from_value(v).map_err(|error| RegisterError { src, kind, error })
}

/// Where a process is inside its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between rounds, waiting to publish.
    Idle,
    /// Published, waiting for the own write to land.
    AwaitWrite,
    /// Waiting for `snapshot_resp`s.
    Snapshotting,
    /// Takes no more steps (returned, or crashed by the driver); its
    /// register server keeps answering.
    Halted,
}

/// One process's protocol record.
#[derive(Debug)]
pub struct Proc<R> {
    /// The 0-based current round: the rounds committed to continue.
    pub round: u64,
    /// Where the process is inside that round.
    pub phase: Phase,
    /// The register server's storage.
    pub reg: Slot<R>,
}

impl<R> Default for Proc<R> {
    fn default() -> Self {
        Proc {
            round: 0,
            phase: Phase::Idle,
            reg: Slot::default(),
        }
    }
}

/// What a process holds for one neighbor.
#[derive(Debug)]
pub struct Link<R> {
    /// The neighbor's last `write` broadcast.
    mirror: Slot<R>,
    /// This round's response; `None` while it is still owed.
    resp: Option<Slot<R>>,
}

impl<R> Default for Link<R> {
    fn default() -> Self {
        Link {
            mirror: Slot::default(),
            resp: None,
        }
    }
}

/// Where the machine puts its frames: the driver's wire, borrowed.
pub trait Outbox {
    /// Sends `body` from `src` to `dest`.
    fn send(&mut self, src: usize, dest: usize, body: &Body);

    /// Sends `src`'s `snapshot_req` of `round` to `dest`, its `_pos`-th
    /// neighbor. A driver with per-request retransmit timers arms one
    /// here.
    fn request(&mut self, src: usize, _pos: usize, dest: usize, round: u64) {
        self.send(src, dest, &Body::SnapshotReq(SnapshotReq { round }));
    }
}

impl Outbox for Vec<Frame> {
    fn send(&mut self, src: usize, dest: usize, body: &Body) {
        self.push(Frame {
            src,
            dest,
            body: body.clone(),
        });
    }
}

/// What a delivery did: the step of the round it completed, if any.
pub type Stepped<O> = Result<Option<Step<O>>, RegisterError>;

/// One process's round machine over parts its driver lends it for one
/// event.
pub struct Machine<'a, A: Algorithm> {
    /// The algorithm.
    pub alg: &'a A,
    /// The process's frame address.
    pub id: usize,
    /// Its neighbors, in topology order.
    pub neighbors: &'a [ProcessId],
    /// Its protocol record.
    pub proc: &'a mut Proc<A::Reg>,
    /// Its algorithm state.
    pub state: &'a mut A::State,
    /// One link per neighbor, in the same order.
    pub links: &'a mut [Link<A::Reg>],
    /// The view buffer a commit fills; any scratch vector will do.
    pub view: &'a mut Vec<Option<A::Reg>>,
}

impl<A> Machine<'_, A>
where
    A: Algorithm,
    A::Reg: Serialize + Deserialize,
{
    /// Round start: returns the register and its `write` to apply to
    /// the own register, or `None` once the process halted.
    pub fn publish(&mut self) -> Option<(A::Reg, Write)> {
        if self.proc.phase == Phase::Halted {
            return None;
        }
        self.proc.phase = Phase::AwaitWrite;
        let reg = self.alg.publish(self.state);
        let round = self.proc.round;
        let value = reg.to_value();
        Some((reg, Write { round, value }))
    }

    /// The own `write` lands (the simulator's loopback delivery): apply
    /// it, then start the snapshot. Returns the step when a process
    /// without neighbors commits at once.
    ///
    /// # Errors
    ///
    /// The payload does not decode.
    pub fn on_own_write(&mut self, w: Write, out: &mut impl Outbox) -> Stepped<A::Output> {
        self.proc.reg.apply(self.id, &w)?;
        Ok(self.snapshot(w, out))
    }

    /// Publish and own write in one go, for a process that holds its
    /// register in its own memory: the typed value is stored as is.
    pub fn begin_round(&mut self, out: &mut impl Outbox) -> Option<Step<A::Output>> {
        let (reg, w) = self.publish()?;
        // A process is its register's only writer and its rounds only
        // grow, so its own write is always the freshest.
        self.proc.reg = Slot(Some((reg, w.round + 1)));
        self.snapshot(w, out)
    }

    /// The own write is applied: broadcast it and request every
    /// neighbor's register. Skipped unless the process still awaits this
    /// round's write; a crash while the write was in flight is a legal
    /// §2 crash point (the write happened, the rest of the round does
    /// not).
    fn snapshot(&mut self, w: Write, out: &mut impl Outbox) -> Option<Step<A::Output>> {
        if self.proc.phase != Phase::AwaitWrite || self.proc.round != w.round {
            return None;
        }
        if self.neighbors.is_empty() {
            return Some(self.commit());
        }
        self.proc.phase = Phase::Snapshotting;
        let round = w.round;
        // The broadcast sends the delivered body itself: the byte codecs
        // serialize it borrowed, so the value is never cloned.
        let write = Body::Write(w);
        for (pos, q) in self.neighbors.iter().enumerate() {
            out.send(self.id, q.index(), &write);
            self.links[pos].resp = None;
            out.request(self.id, pos, q.index(), round);
        }
        None
    }

    /// Feeds one delivered frame other than the own write: answers
    /// reads, warms mirrors, collects responses. Returns the step when
    /// the frame completes the round's snapshot. Frames from
    /// non-neighbors, stale rounds, duplicate responses and control
    /// frames change nothing.
    ///
    /// # Errors
    ///
    /// A `write` or `snapshot_resp` whose register does not decode;
    /// nothing changed and nothing was sent.
    pub fn on_frame(&mut self, frame: Frame, out: &mut impl Outbox) -> Stepped<A::Output> {
        let src = frame.src;
        match frame.body {
            Body::Write(w) => {
                if let Some(pos) = self.position(src) {
                    self.links[pos].mirror.apply(src, &w)?;
                }
            }
            Body::SnapshotReq(r) => {
                let resp = Body::SnapshotResp(self.proc.reg.answer(r.round));
                out.send(self.id, src, &resp);
            }
            Body::SnapshotResp(r) => return self.on_resp(src, r),
            Body::Init(_) | Body::InitOk(_) | Body::Decide(_) => {}
        }
        Ok(None)
    }

    fn on_resp(&mut self, src: usize, r: SnapshotResp) -> Stepped<A::Output> {
        if self.proc.phase != Phase::Snapshotting || self.proc.round != r.round {
            return Ok(None);
        }
        let Some(pos) = self.position(src) else {
            return Ok(None);
        };
        if self.links[pos].resp.is_some() {
            return Ok(None);
        }
        let value = r.value.map(|v| decode(src, "snapshot_resp", &v));
        self.links[pos].resp = Some(Slot(value.transpose()?.map(|v| (v, r.stamp))));
        Ok(self
            .links
            .iter()
            .all(|l| l.resp.is_some())
            .then(|| self.commit()))
    }

    /// Whether neighbor `pos` still owes this process its response of
    /// `round`: the test a retransmit makes before it fires.
    pub fn owes(&self, pos: usize, round: u64) -> bool {
        self.proc.phase == Phase::Snapshotting
            && self.proc.round == round
            && self.links[pos].resp.is_none()
    }

    /// All responses in: merge the views, run the algorithm step.
    fn commit(&mut self) -> Step<A::Output> {
        self.view.clear();
        self.view.extend(self.links.iter_mut().map(|link| {
            let resp = link.resp.take();
            resp.expect("commit only fires once every neighbor answered")
                .merge(&link.mirror)
        }));
        let step = self.alg.step(self.state, &Neighborhood::new(self.view));
        match step {
            Step::Continue => {
                self.proc.round += 1;
                self.proc.phase = Phase::Idle;
            }
            Step::Return(_) => self.proc.phase = Phase::Halted,
        }
        step
    }

    fn position(&self, who: usize) -> Option<usize> {
        self.neighbors.iter().position(|q| q.index() == who)
    }
}
