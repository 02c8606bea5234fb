//! The register protocol: the one implementation of the paper's §2
//! state model over message passing, run by both the discrete-event
//! simulator ([`crate::sim`]) and the real-process cluster node
//! (`ftcolor-cluster`'s `NodeCore`).
//!
//! Every process owns a single-writer register, held by a co-located
//! register server, and reads its neighbors' registers with one
//! snapshot per round. A round of the [`Machine`]:
//!
//! 1. **Publish.** The process computes `publish(state)`, its `write`.
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
//! The machine moves typed registers: it sends [`Msg`]s that borrow the
//! algorithm's register, and takes deliveries whose register is already
//! typed (the simulators decode frames straight into it) or still a
//! [`Tree`] (the cluster's pipe frames), which is decoded only when a
//! slot keeps it (a mirror only when its stamp is fresher). A payload
//! that does not decode is a [`RegisterError`] and leaves the machine as
//! it was.
//!
//! The machine keeps no clock and does no I/O. A driver lends it one
//! process's parts for one event and an [`Outbox`] to send through; the
//! event loop, timers, crashes and the wire stay with the driver.

use std::fmt;

use ftcolor_model::{Algorithm, Neighborhood, ProcessId, Step};
use serde::{Deserialize, Serialize, Value};

use crate::msg::{Frame, Msg};

/// A register as a delivered message carries it: already typed (the
/// simulators decode frames straight into the register type), or a
/// [`Tree`] decoded only when the machine keeps it.
pub trait Payload<R> {
    /// The register.
    ///
    /// # Errors
    ///
    /// The payload does not decode as `R`.
    fn into_register(self) -> Result<R, serde::Error>;
}

impl<R> Payload<R> for R {
    fn into_register(self) -> Result<R, serde::Error> {
        Ok(self)
    }
}

/// A register still in its `Value` tree, as the cluster's pipe frames
/// carry it. A stale or duplicate payload is dropped without ever being
/// decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree(pub Value);

impl<R: Deserialize> Payload<R> for Tree {
    fn into_register(self) -> Result<R, serde::Error> {
        R::from_value(&self.0)
    }
}

/// A register observation: the freshest value seen and its stamp
/// (writer round + 1; an empty slot has stamp 0, never written).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot<R>(Option<(R, u64)>);

impl<R> Default for Slot<R> {
    fn default() -> Self {
        Slot(None)
    }
}

impl<R> Slot<R> {
    /// The freshness stamp (0 = never written).
    pub fn stamp(&self) -> u64 {
        self.0.as_ref().map_or(0, |(_, s)| *s)
    }

    /// The stored value, if the register was ever written.
    pub fn value(&self) -> Option<&R> {
        self.0.as_ref().map(|(v, _)| v)
    }

    /// Applies `src`'s `write` of `round`: decodes and keeps its value
    /// only when its stamp is fresher than the slot's, so reordered or
    /// duplicated writes never roll the slot back and a stale payload is
    /// never decoded. A hostile `round` of `u64::MAX` saturates its stamp.
    ///
    /// # Errors
    ///
    /// A kept payload that does not decode as `R`; the slot is unchanged.
    pub fn apply(
        &mut self,
        src: usize,
        round: u64,
        value: impl Payload<R>,
    ) -> Result<(), RegisterError> {
        let stamp = round.saturating_add(1);
        if stamp > self.stamp() {
            self.0 = Some((decode(src, "write", value)?, stamp));
        }
        Ok(())
    }

    /// The register server's answer to a `snapshot_req` of `round`, the
    /// value borrowed.
    pub fn answer(&self, round: u64) -> Msg<&R> {
        Msg::SnapshotResp {
            round,
            value: self.value(),
            stamp: self.stamp(),
        }
    }
}

impl<R: Clone> Slot<R> {
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

fn decode<R>(src: usize, kind: &'static str, v: impl Payload<R>) -> Result<R, RegisterError> {
    v.into_register()
        .map_err(|error| RegisterError { src, kind, error })
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

/// Where the machine puts its messages: the driver's wire, borrowed.
/// Registers go out borrowed and typed; the driver encodes them.
pub trait Outbox<R> {
    /// Sends `msg` from `src` to `dest`.
    fn send(&mut self, src: usize, dest: usize, msg: Msg<&R>);

    /// Sends `src`'s `snapshot_req` of `round` to `dest`, its `_pos`-th
    /// neighbor. A driver with per-request retransmit timers arms one
    /// here.
    fn request(&mut self, src: usize, _pos: usize, dest: usize, round: u64) {
        self.send(src, dest, Msg::SnapshotReq { round });
    }
}

/// Collects [`Frame`]s, each register converted to its `Value` tree.
impl<R: Serialize> Outbox<R> for Vec<Frame> {
    fn send(&mut self, src: usize, dest: usize, msg: Msg<&R>) {
        self.push(Frame {
            src,
            dest,
            body: msg.to_body(),
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

impl<A: Algorithm> Machine<'_, A> {
    /// Round start: returns the register to write and the round it is
    /// written in, or `None` once the process halted.
    pub fn publish(&mut self) -> Option<(A::Reg, u64)> {
        if self.proc.phase == Phase::Halted {
            return None;
        }
        self.proc.phase = Phase::AwaitWrite;
        Some((self.alg.publish(self.state), self.proc.round))
    }

    /// The own `write` of `round` lands (the simulator's loopback
    /// delivery): apply it, then start the snapshot. Returns the step
    /// when a process without neighbors commits at once.
    ///
    /// # Errors
    ///
    /// The payload does not decode.
    pub fn on_own_write(
        &mut self,
        round: u64,
        value: impl Payload<A::Reg>,
        out: &mut impl Outbox<A::Reg>,
    ) -> Stepped<A::Output> {
        self.proc.reg.apply(self.id, round, value)?;
        Ok(self.snapshot(round, out))
    }

    /// Publish and own write in one go, for a process that holds its
    /// register in its own memory: the typed value is stored as is.
    pub fn begin_round(&mut self, out: &mut impl Outbox<A::Reg>) -> Option<Step<A::Output>> {
        let (reg, round) = self.publish()?;
        // A process is its register's only writer and its rounds only
        // grow, so its own write is always the freshest.
        self.proc.reg = Slot(Some((reg, round + 1)));
        self.snapshot(round, out)
    }

    /// The own write of `round` is applied: broadcast it and request
    /// every neighbor's register. Skipped unless the process still
    /// awaits this round's write; a crash while the write was in flight
    /// is a legal §2 crash point (the write happened, the rest of the
    /// round does not).
    fn snapshot(&mut self, round: u64, out: &mut impl Outbox<A::Reg>) -> Option<Step<A::Output>> {
        if self.proc.phase != Phase::AwaitWrite || self.proc.round != round {
            return None;
        }
        if self.neighbors.is_empty() {
            return Some(self.commit());
        }
        self.proc.phase = Phase::Snapshotting;
        // The broadcast borrows the own register, just written: the
        // simulator's wire serializes it in place, so it is never cloned.
        let value = self.proc.reg.value().expect("the own write was applied");
        let write = Msg::Write { round, value };
        for (pos, q) in self.neighbors.iter().enumerate() {
            out.send(self.id, q.index(), write);
            self.links[pos].resp = None;
            out.request(self.id, pos, q.index(), round);
        }
        None
    }

    /// Feeds one message from `src` other than the own write: answers
    /// reads, warms mirrors, collects responses. Returns the step when
    /// the message completes the round's snapshot. Messages from
    /// non-neighbors get no answer and change nothing; nor do stale
    /// rounds and duplicate responses.
    ///
    /// # Errors
    ///
    /// A `write` or `snapshot_resp` whose register does not decode;
    /// nothing changed and nothing was sent.
    pub fn on_msg<P: Payload<A::Reg>>(
        &mut self,
        src: usize,
        msg: Msg<P>,
        out: &mut impl Outbox<A::Reg>,
    ) -> Stepped<A::Output> {
        match msg {
            Msg::Write { round, value } => {
                if let Some(pos) = self.position(src) {
                    self.links[pos].mirror.apply(src, round, value)?;
                }
            }
            Msg::SnapshotReq { round } => {
                if self.position(src).is_some() {
                    out.send(self.id, src, self.proc.reg.answer(round));
                }
            }
            Msg::SnapshotResp {
                round,
                value,
                stamp,
            } => return self.on_resp(src, round, value, stamp),
        }
        Ok(None)
    }

    fn on_resp(
        &mut self,
        src: usize,
        round: u64,
        value: Option<impl Payload<A::Reg>>,
        stamp: u64,
    ) -> Stepped<A::Output> {
        if self.proc.phase != Phase::Snapshotting || self.proc.round != round {
            return Ok(None);
        }
        let Some(pos) = self.position(src) else {
            return Ok(None);
        };
        if self.links[pos].resp.is_some() {
            return Ok(None);
        }
        let value = value.map(|v| decode(src, "snapshot_resp", v)).transpose()?;
        self.links[pos].resp = Some(Slot(value.map(|v| (v, stamp))));
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
