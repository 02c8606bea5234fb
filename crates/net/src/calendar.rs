//! A calendar (bucket) event queue for the discrete-event simulators.
//!
//! Both in-process simulators schedule millions of events per run, and
//! almost every one lands within a few dozen ticks of the current time:
//! delivery delays, retransmit timeouts, and activation jitter are all
//! short-horizon. A binary heap pays `O(log n)` compares and entry
//! moves on every push and pop for an ordering that is almost always
//! "append at the end of the near future". This queue makes both
//! operations `O(1)`: a ring of [`QWINDOW`] FIFO buckets covers the
//! near future, and the rare far-future event (a fault plan's scheduled
//! crash, a retransmit timeout longer than the window) waits in a small
//! spill heap until the window reaches it.
//!
//! # Ordering — identical to a `(time, tick)` binary heap
//!
//! Replayability pins the event order: the simulators' determinism
//! guarantees are stated over a queue that pops in lexicographic
//! `(time, tick)` order, where `tick` is the monotone schedule counter.
//! This queue preserves that order exactly:
//!
//! * **Across times** — `base` only moves forward, buckets are popped
//!   in time order, and the spill heap only holds events at or beyond
//!   `base + QWINDOW`, so no spill event can precede a bucketed one.
//! * **Within one time** — a bucket is FIFO, and pushes arrive in tick
//!   order: direct pushes trivially so, and spill drains happen the
//!   moment `base` advances far enough for a time to enter the window —
//!   *before* any same-time direct push can occur, because a direct
//!   push at time `t` requires `base > t - QWINDOW` and `base` is
//!   monotone. Spill entries themselves drain in `(time, tick)` heap
//!   order. So every bucket's FIFO order is ascending tick.
//!
//! # Memory — storage follows what is in flight
//!
//! A drained bucket hands its storage to a spare list, and the next
//! empty bucket to receive an event takes it from there. The queue
//! therefore holds about as many buffers as there are distinct pending
//! times, not one per bucket the run ever filled: a long run sweeps
//! the whole ring, and without recycling every bucket would keep the
//! capacity of its largest burst for good. Which buffer a bucket gets
//! never affects pop order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bucket count (a power of two). Covers every short-horizon delay the
/// protocols schedule — delivery delays, reorder extras, default
/// retransmit timeouts, activation jitter — without touching the spill
/// heap; anything scheduled further out is still correct, just slower.
const QWINDOW: u64 = 256;

struct SpillEntry<T> {
    at: u64,
    tick: u64,
    ev: T,
}

impl<T> PartialEq for SpillEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tick == other.tick
    }
}
impl<T> Eq for SpillEntry<T> {}
impl<T> PartialOrd for SpillEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for SpillEntry<T> {
    /// Reversed so the max-heap pops the earliest `(at, tick)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.tick.cmp(&self.tick))
    }
}

/// The calendar queue: `O(1)` push and pop, `(time, tick)` pop order.
pub(crate) struct EventQueue<T> {
    /// Earliest time any event may still be pending at. Monotone.
    base: u64,
    /// `buckets[t % QWINDOW]` holds every pending event at time `t` for
    /// `t` in `[base, base + QWINDOW)`, FIFO in schedule order. Times
    /// congruent mod `QWINDOW` cannot collide: a colliding time would
    /// be `base + QWINDOW` or later, which lives in the spill heap.
    buckets: Vec<VecDeque<T>>,
    /// Storage of drained buckets, lent to the next bucket that fills.
    spare: Vec<VecDeque<T>>,
    /// Events at `base + QWINDOW` or later, drained into buckets as
    /// `base` advances.
    spill: BinaryHeap<SpillEntry<T>>,
    /// Events currently in buckets (spill excluded).
    in_buckets: usize,
    /// Monotone schedule counter — the pop-order tie-break within a
    /// time, exactly as in the binary-heap formulation.
    tick: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            base: 0,
            buckets: (0..QWINDOW).map(|_| VecDeque::new()).collect(),
            spare: Vec::new(),
            spill: BinaryHeap::new(),
            in_buckets: 0,
            tick: 0,
        }
    }

    /// Schedules `ev` at time `at`. `at` must not precede the last
    /// popped time (discrete-event simulations never schedule into the
    /// past).
    pub(crate) fn push(&mut self, at: u64, ev: T) {
        let tick = self.tick;
        self.tick += 1;
        if at < self.base + QWINDOW {
            debug_assert!(
                at >= self.base,
                "scheduled into the past: {at} < {}",
                self.base
            );
            self.bucket_push(at, ev);
        } else {
            self.spill.push(SpillEntry { at, tick, ev });
        }
    }

    /// Pops the earliest `(time, tick)` event, or `None` when empty.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.in_buckets == 0 {
            // Nothing in the window: jump straight to the spill's next
            // time (this also drains it into the fresh window).
            let at = self.spill.peek()?.at;
            self.advance_to(at);
        }
        loop {
            let bucket = &mut self.buckets[(self.base % QWINDOW) as usize];
            if let Some(ev) = bucket.pop_front() {
                if bucket.is_empty() {
                    self.spare.push(std::mem::take(bucket));
                }
                self.in_buckets -= 1;
                return Some((self.base, ev));
            }
            let next = self.base + 1;
            self.advance_to(next);
        }
    }

    /// Advances `base` to `at`, draining every spill event whose time
    /// has entered the bucket window. Draining exactly when the window
    /// reaches a time (never later) is what keeps bucket FIFO order
    /// equal to tick order — see the module docs.
    fn advance_to(&mut self, at: u64) {
        self.base = at;
        while let Some(top) = self.spill.peek() {
            if top.at >= self.base + QWINDOW {
                break;
            }
            let SpillEntry { at, ev, .. } = self.spill.pop().expect("peeked entry exists");
            self.bucket_push(at, ev);
        }
    }

    /// Appends `ev` to the bucket of time `at`, lending it spare
    /// storage first if it holds none.
    fn bucket_push(&mut self, at: u64, ev: T) {
        let bucket = &mut self.buckets[(at % QWINDOW) as usize];
        if bucket.capacity() == 0 {
            if let Some(storage) = self.spare.pop() {
                *bucket = storage;
            }
        }
        bucket.push_back(ev);
        self.in_buckets += 1;
    }

    /// Event slots allocated across buckets and spares.
    #[cfg(test)]
    fn held_capacity(&self) -> usize {
        self.buckets
            .iter()
            .chain(&self.spare)
            .map(VecDeque::capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference `(at, tick)` heap pop on the same pushes.
    fn reference_order(pushes: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut keyed: Vec<(u64, u64, u32)> = pushes
            .iter()
            .enumerate()
            .map(|(tick, &(at, id))| (at, tick as u64, id))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(at, _, id)| (at, id)).collect()
    }

    #[test]
    fn pops_in_time_then_tick_order() {
        let pushes = [(5u64, 0u32), (3, 1), (5, 2), (0, 3), (3, 4), (7, 5)];
        let mut q = EventQueue::new();
        for &(at, id) in &pushes {
            q.push(at, id);
        }
        let mut got = Vec::new();
        while let Some((at, id)) = q.pop() {
            got.push((at, id));
        }
        assert_eq!(got, reference_order(&pushes));
    }

    #[test]
    fn far_future_events_spill_and_come_back_in_order() {
        // Mix near events with events far past the window, including
        // ties between a spilled and a directly pushed event at the
        // same time — the spilled one was scheduled first, so it must
        // pop first.
        let mut q = EventQueue::new();
        let mut pushes: Vec<(u64, u32)> = Vec::new();
        let push = |q: &mut EventQueue<u32>, ps: &mut Vec<(u64, u32)>, at: u64, id: u32| {
            q.push(at, id);
            ps.push((at, id));
        };
        push(&mut q, &mut pushes, 1, 0);
        push(&mut q, &mut pushes, 10_000, 1); // spill
        push(&mut q, &mut pushes, 2, 2);
        push(&mut q, &mut pushes, 10_000, 3); // spill, same time as 1
        push(&mut q, &mut pushes, 600, 4); // spill (past QWINDOW)
                                           // Drain the near events; the queue advances into spill range.
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(q.pop().expect("near events"));
        }
        // Now schedule directly at a formerly-spilled time: base has
        // moved, but 600 only enters the window once base > 600 - 256,
        // and this push happens before that.
        push(&mut q, &mut pushes, 600, 5);
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, reference_order(&pushes));
    }

    #[test]
    fn interleaved_pushes_during_pops_keep_order() {
        // Simulates the event-loop pattern: each pop schedules new
        // events strictly after the popped time.
        let mut q = EventQueue::new();
        q.push(1, 0u32);
        let mut popped = Vec::new();
        let mut next_id = 1u32;
        while let Some((at, id)) = q.pop() {
            popped.push((at, id));
            if next_id < 64 {
                q.push(at + 1 + u64::from(next_id % 7), next_id);
                q.push(at + 300, next_id + 1); // through the spill
                next_id += 2;
            }
        }
        // Times must be monotone, and every pushed id must come out.
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(popped.len(), 65);
    }

    #[test]
    fn recycled_storage_keeps_held_capacity_bounded() {
        // Per-tick bursts, each landing over the next four ticks and
        // drained before the next burst: the run sweeps the bucket ring
        // many times over, but never more than four times are pending.
        const BURST: u64 = 64;
        let mut q = EventQueue::new();
        let mut now = 0;
        for _ in 0..2_000 {
            for i in 0..BURST {
                q.push(now + 1 + i % 4, i);
            }
            for _ in 0..BURST {
                now = q.pop().expect("a burst is pending").0;
            }
        }
        assert!(now > 20 * QWINDOW, "the run wraps the ring many times");
        // Without recycling every bucket would keep a burst quarter's
        // capacity: 256 buckets × 16 events.
        let held = q.held_capacity();
        assert!(held <= 4 * BURST as usize, "held capacity {held}");
    }

    #[test]
    fn randomized_pushes_pop_in_reference_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut pending: Vec<(u64, u64, u32)> = Vec::new();
            let (mut now, mut tick, mut id) = (0u64, 0u64, 0u32);
            for _ in 0..400 {
                // A burst of pushes: mostly near (the recycle path), some
                // past the window (the spill path), some straddling its
                // edge (same-time spill and direct pushes), some at `now`.
                for _ in 0..rng.gen_range(0..12) {
                    let delay = match rng.gen_range(0..10) {
                        0 => rng.gen_range(QWINDOW..3 * QWINDOW),
                        1 => rng.gen_range(QWINDOW - 4..QWINDOW + 4),
                        2 => 0,
                        _ => rng.gen_range(1..8),
                    };
                    q.push(now + delay, id);
                    pending.push((now + delay, tick, id));
                    tick += 1;
                    id += 1;
                }
                for _ in 0..rng.gen_range(0..12) {
                    let got = q.pop();
                    let want = (0..pending.len())
                        .min_by_key(|&i| pending[i])
                        .map(|i| pending.remove(i));
                    assert_eq!(got, want.map(|(at, _, id)| (at, id)), "seed {seed}");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            let mut rest = Vec::new();
            while let Some(e) = q.pop() {
                rest.push(e);
            }
            pending.sort_unstable();
            let want: Vec<_> = pending.into_iter().map(|(at, _, id)| (at, id)).collect();
            assert_eq!(rest, want, "seed {seed}");
        }
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.pop().is_none());
        q.push(3, 9);
        assert_eq!(q.pop(), Some((3, 9)));
        assert!(q.pop().is_none());
    }
}
