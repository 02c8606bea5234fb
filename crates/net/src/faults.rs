//! Seeded, fully deterministic fault plans for the simulated network.
//!
//! A [`FaultPlan`] describes everything the adversary may do to the
//! network: per-link drop/delay/duplicate/reorder probabilities,
//! partition windows (with or without healing), and process crashes.
//! All randomness downstream is drawn from one seeded generator in a
//! fixed order, so the same `(seed, plan)` pair always yields the same
//! delivery schedule — byte-identical traces, replayable runs.
//!
//! Loopback links (a node writing to its own co-located register
//! server) are reliable by construction: they model a process's access
//! to its own shared-memory register, which the paper's model never
//! fails. Partitions likewise only cut links *between* the two sides.
//!
//! The JSON form is tolerant of omitted fields (each falls back to its
//! default), so CLI fault plans stay short:
//!
//! ```text
//! --faults '{"drop":0.15,"partitions":[{"start":5,"end":60,"side":[0,1]}]}'
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Fields, Serialize, Source};

/// Default minimum link delay (logical ticks).
pub const DEFAULT_DELAY_MIN: u64 = 1;
/// Default maximum link delay (logical ticks).
pub const DEFAULT_DELAY_MAX: u64 = 3;
/// Default extra-delay window for reordered/duplicated copies.
pub const DEFAULT_REORDER_MAX: u64 = 8;

/// A partition window: messages between `side` and its complement are
/// dropped while `start <= now < end`. Use [`Partition::forever`] (or
/// `end = u64::MAX`) for a partition that never heals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// First logical time at which the cut is in effect.
    pub start: u64,
    /// First logical time at which the cut is healed (exclusive end).
    pub end: u64,
    /// The nodes on one side of the cut (the other side is the rest).
    pub side: Vec<usize>,
}

impl Partition {
    /// A partition over `[start, end)` isolating `side`.
    pub fn window(start: u64, end: u64, side: Vec<usize>) -> Self {
        Partition { start, end, side }
    }

    /// A partition from `start` that never heals.
    pub fn forever(start: u64, side: Vec<usize>) -> Self {
        Partition {
            start,
            end: u64::MAX,
            side,
        }
    }

    /// Whether a message `from -> to` sent at time `now` crosses the cut
    /// while it is active.
    pub fn cuts(&self, now: u64, from: usize, to: usize) -> bool {
        self.start <= now
            && now < self.end
            && (self.side.contains(&from) != self.side.contains(&to))
    }
}

/// A process crash: node `node` stops taking algorithm steps at logical
/// time `at`. Its register server keeps serving reads — registers are
/// shared memory in the paper's model and survive the crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashAt {
    /// The crashing node.
    pub node: usize,
    /// The logical time of the crash.
    pub at: u64,
}

/// Per-link override of the global fault parameters for messages
/// `from -> to` (directed). [`FaultPlan::validate`] takes the same
/// ranges as for the global fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Source node of the directed link.
    pub from: usize,
    /// Destination node of the directed link.
    pub to: usize,
    /// Drop probability on this link, in `[0, 1]`.
    pub drop: f64,
    /// Minimum delivery delay on this link (ticks; 0 is read as 1).
    pub delay_min: u64,
    /// Maximum delivery delay on this link, `>= delay_min`.
    pub delay_max: u64,
    /// Duplicate probability on this link, in `[0, 1]`.
    pub duplicate: f64,
    /// Reorder probability on this link, in `[0, 1]`.
    pub reorder: f64,
}

/// The effective fault parameters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Drop probability in `[0, 1]` (1 drops every message).
    pub drop: f64,
    /// Minimum delivery delay (ticks, `>= 1`).
    pub delay_min: u64,
    /// Maximum delivery delay (ticks, `>= delay_min`).
    pub delay_max: u64,
    /// Duplicate probability in `[0, 1]`.
    pub duplicate: f64,
    /// Reorder (extra-delay) probability in `[0, 1]`.
    pub reorder: f64,
}

/// The full fault plan. [`FaultPlan::default`] is a clean network:
/// no drops, no duplicates, no reordering, delays in `[1, 3]`, no
/// partitions, no crashes. The ranges the field docs give are what
/// [`FaultPlan::validate`] accepts. Any delay, however long, is valid:
/// a delivery time past `u64::MAX` ticks saturates, and means never.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Global drop probability per message, in `[0, 1]`.
    pub drop: f64,
    /// Global minimum delivery delay (logical ticks; 0 is read as 1).
    pub delay_min: u64,
    /// Global maximum delivery delay, `>= delay_min`.
    pub delay_max: u64,
    /// Global duplicate probability per message, in `[0, 1]`.
    pub duplicate: f64,
    /// Global reorder probability per message, in `[0, 1]` (an extra
    /// random delay that lets later sends overtake this one).
    pub reorder: f64,
    /// Upper bound on the extra reorder/duplicate delay (ticks; 0 is
    /// read as 1).
    pub reorder_max: u64,
    /// Per-link overrides of the global parameters.
    pub links: Vec<LinkFault>,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Process crashes.
    pub crashes: Vec<CrashAt>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: 0.0,
            delay_min: DEFAULT_DELAY_MIN,
            delay_max: DEFAULT_DELAY_MAX,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_max: DEFAULT_REORDER_MAX,
            links: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A clean network (alias of [`FaultPlan::default`]).
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// A uniformly lossy network: every link drops each message with
    /// probability `drop`.
    pub fn lossy(drop: f64) -> Self {
        FaultPlan {
            drop,
            ..FaultPlan::default()
        }
    }

    /// Adds a process crash.
    #[must_use]
    pub fn with_crash(mut self, node: usize, at: u64) -> Self {
        self.crashes.push(CrashAt { node, at });
        self
    }

    /// Adds a partition window.
    #[must_use]
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// The effective parameters for the directed link `from -> to`
    /// (the first matching override wins, else the global values).
    pub fn link(&self, from: usize, to: usize) -> LinkParams {
        let base = LinkParams {
            drop: self.drop,
            delay_min: self.delay_min.max(1),
            delay_max: self.delay_max.max(self.delay_min.max(1)),
            duplicate: self.duplicate,
            reorder: self.reorder,
        };
        self.links
            .iter()
            .find(|l| l.from == from && l.to == to)
            .map_or(base, |l| LinkParams {
                drop: l.drop,
                delay_min: l.delay_min.max(1),
                delay_max: l.delay_max.max(l.delay_min.max(1)),
                duplicate: l.duplicate,
                reorder: l.reorder,
            })
    }

    /// Whether a message `from -> to` sent at `now` is cut by an active
    /// partition window.
    pub fn partitioned(&self, now: u64, from: usize, to: usize) -> bool {
        self.partitions.iter().any(|p| p.cuts(now, from, to))
    }

    /// Checks the plan against a network of `n` nodes: every node id
    /// (crashes, partition sides, link overrides) is `< n`, every
    /// probability is finite and in `[0, 1]`, and `delay_min <=
    /// delay_max` globally and on every link override. The simulators
    /// accept any plan, so callers that take plans from users run this
    /// first; the error names the offending field.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let node = |what: &str, id: usize| {
            if id < n {
                Ok(())
            } else {
                Err(format!(
                    "{what} names node {id}, but the network has {n} nodes"
                ))
            }
        };
        let prob = |what: &str, p: f64| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{what} = {p} is not a probability in [0, 1]"))
            }
        };
        let delays = |what: &str, min: u64, max: u64| {
            if min <= max {
                Ok(())
            } else {
                Err(format!("{what}delay_min {min} exceeds delay_max {max}"))
            }
        };
        prob("drop", self.drop)?;
        prob("duplicate", self.duplicate)?;
        prob("reorder", self.reorder)?;
        delays("", self.delay_min, self.delay_max)?;
        for c in &self.crashes {
            node("crash", c.node)?;
        }
        for p in &self.partitions {
            for &id in &p.side {
                node("partition side", id)?;
            }
        }
        for l in &self.links {
            let at = format!("link {}->{}", l.from, l.to);
            node(&at, l.from)?;
            node(&at, l.to)?;
            prob(&format!("{at} drop"), l.drop)?;
            prob(&format!("{at} duplicate"), l.duplicate)?;
            prob(&format!("{at} reorder"), l.reorder)?;
            delays(&format!("{at} "), l.delay_min, l.delay_max)?;
        }
        Ok(())
    }
}

/// The fate of one send, relative to its send time: the shared
/// fault-plan interpreter's verdict, before any substrate turns the
/// delays into absolute logical ticks (the simulator) or wall-clock
/// milliseconds (the real-process cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver after `delay` ticks; if `dup_extra` is set, deliver an
    /// extra duplicate copy `dup_extra` ticks after the primary.
    Deliver {
        /// Primary-copy delay in logical ticks.
        delay: u64,
        /// Extra delay of the injected duplicate copy, if any.
        dup_extra: Option<u64>,
    },
    /// Lost to the per-link drop probability.
    Drop,
    /// Lost to an active partition window.
    PartitionDrop,
}

/// Draws the fate of one send `from -> to` at logical time `now` from
/// `plan`, consuming `rng` in a fixed order (partition check first —
/// cut messages consume no randomness — then drop, delay, reorder,
/// duplicate). This is the single fault-plan interpreter behind both
/// message-passing substrates: the discrete-event simulator consumes it
/// with a logical clock, the real-process cluster orchestrator with a
/// wall-clock tick mapping.
pub fn draw_fate(plan: &FaultPlan, rng: &mut StdRng, now: u64, from: usize, to: usize) -> Fate {
    if plan.partitioned(now, from, to) {
        return Fate::PartitionDrop;
    }
    let lp = plan.link(from, to);
    if rng.gen_bool(lp.drop) {
        return Fate::Drop;
    }
    let extra_max = plan.reorder_max.max(1);
    let mut delay = rng.gen_range(lp.delay_min..=lp.delay_max);
    if rng.gen_bool(lp.reorder) {
        delay = delay.saturating_add(rng.gen_range(1..=extra_max));
    }
    let dup_extra = if rng.gen_bool(lp.duplicate) {
        Some(rng.gen_range(1..=extra_max))
    } else {
        None
    };
    Fate::Deliver { delay, dup_extra }
}

/// The plan's fields, in declaration order.
const PLAN_FIELDS: [&str; 9] = [
    "drop",
    "delay_min",
    "delay_max",
    "duplicate",
    "reorder",
    "reorder_max",
    "links",
    "partitions",
    "crashes",
];

impl Deserialize for FaultPlan {
    /// Tolerant parse: every omitted (or `null`) field falls back to its
    /// default, so `{}` is a clean network and `{"drop":0.2}` is a lossy
    /// one.
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, S::Error> {
        let d = FaultPlan::default();
        let mut f = Fields::begin(src, "FaultPlan", &PLAN_FIELDS)?;
        let plan = FaultPlan {
            drop: f.field::<_, Option<_>>(src, 0)?.unwrap_or(d.drop),
            delay_min: f.field::<_, Option<_>>(src, 1)?.unwrap_or(d.delay_min),
            delay_max: f.field::<_, Option<_>>(src, 2)?.unwrap_or(d.delay_max),
            duplicate: f.field::<_, Option<_>>(src, 3)?.unwrap_or(d.duplicate),
            reorder: f.field::<_, Option<_>>(src, 4)?.unwrap_or(d.reorder),
            reorder_max: f.field::<_, Option<_>>(src, 5)?.unwrap_or(d.reorder_max),
            links: f.field::<_, Option<_>>(src, 6)?.unwrap_or(d.links),
            partitions: f.field::<_, Option<_>>(src, 7)?.unwrap_or(d.partitions),
            crashes: f.field::<_, Option<_>>(src, 8)?.unwrap_or(d.crashes),
        };
        f.finish(src)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerant_json_parse_fills_defaults() {
        let plan: FaultPlan = serde_json::from_str("{}").expect("empty plan parses");
        assert_eq!(plan, FaultPlan::default());
        let plan: FaultPlan =
            serde_json::from_str(r#"{"drop":0.25,"partitions":[{"start":2,"end":9,"side":[0]}]}"#)
                .expect("partial plan parses");
        assert!((plan.drop - 0.25).abs() < 1e-12);
        assert_eq!(plan.delay_min, DEFAULT_DELAY_MIN);
        assert_eq!(plan.partitions.len(), 1);
        assert!(plan.partitions[0].cuts(5, 0, 1));
        assert!(!plan.partitions[0].cuts(9, 0, 1), "healed at end");
        assert!(!plan.partitions[0].cuts(5, 2, 1), "same side unaffected");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::lossy(0.1)
            .with_crash(3, 7)
            .with_partition(Partition::forever(4, vec![1, 2]));
        let text = serde_json::to_string(&plan).expect("plan encodes");
        let back: FaultPlan = serde_json::from_str(&text).expect("round-trips");
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_rejects_out_of_range_plans() {
        let with_link = |from, to, drop, delay_min, delay_max| {
            let mut plan = FaultPlan::default();
            plan.links.push(LinkFault {
                from,
                to,
                drop,
                delay_min,
                delay_max,
                duplicate: 0.0,
                reorder: 0.0,
            });
            plan
        };
        for plan in [
            FaultPlan::lossy(1.0)
                .with_crash(7, 5)
                .with_partition(Partition::window(0, 5, vec![0, 7])),
            with_link(0, 7, 0.5, 2, 2),
        ] {
            assert_eq!(plan.validate(8), Ok(()), "{plan:?}");
        }
        let json = |text: &str| serde_json::from_str(text).expect("plan parses");
        for (plan, want) in [
            (
                json(r#"{"crashes":[{"node":99,"at":5}]}"#),
                "crash names node 99",
            ),
            (
                json(r#"{"partitions":[{"start":0,"end":5,"side":[99]}]}"#),
                "partition side names node 99",
            ),
            (json(r#"{"drop":1.5}"#), "drop = 1.5"),
            (json(r#"{"drop":-1}"#), "drop = -1"),
            (json(r#"{"duplicate":2}"#), "duplicate = 2"),
            (FaultPlan::lossy(f64::NAN), "drop = NaN"),
            (
                json(r#"{"delay_min":5,"delay_max":2}"#),
                "delay_min 5 exceeds delay_max 2",
            ),
            (with_link(0, 8, 0.5, 1, 1), "link 0->8 names node 8"),
            (with_link(0, 1, 1.5, 1, 1), "link 0->1 drop = 1.5"),
            (
                with_link(0, 1, 0.5, 4, 3),
                "link 0->1 delay_min 4 exceeds delay_max 3",
            ),
        ] {
            let err = plan.validate(8).expect_err(want);
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn link_overrides_take_precedence() {
        let mut plan = FaultPlan::default();
        plan.links.push(LinkFault {
            from: 0,
            to: 1,
            drop: 0.9,
            delay_min: 5,
            delay_max: 5,
            duplicate: 0.0,
            reorder: 0.0,
        });
        assert!((plan.link(0, 1).drop - 0.9).abs() < 1e-12);
        assert!((plan.link(1, 0).drop).abs() < 1e-12, "directed override");
        assert_eq!(plan.link(0, 1).delay_min, 5);
    }
}
