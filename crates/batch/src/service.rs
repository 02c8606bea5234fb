//! The service front end: a seeded open-loop workload driven through a
//! [`BatchEngine`], summarized for machines.
//!
//! [`run_service`] wires the pieces together: an [`ArrivalPlan`] decides
//! how many instances arrive before each sweep round, a [`WorkloadGen`]
//! decides what they are, the engine sweeps, and a completion sink folds
//! every outcome into a [`ServiceSummary`]. The summary carries **only
//! deterministic fields** — everything in it is a pure function of the
//! configuration, identical at every `--jobs` value (the golden test
//! pins this byte-for-byte). Wall-clock measurements (throughput,
//! latency in seconds, peak RSS) live in the separate [`ServiceTimings`]
//! so they can be printed to stderr / bench snapshots without
//! contaminating the reproducible half.
//!
//! Two execution paths, one summary shape:
//!
//! * `instances > 1` — the batched path: every instance lives as packed
//!   slab rows in one [`BatchEngine`], sharing interned values.
//! * `instances == 1` — the materialized path
//!   ([`crate::engine::run_materialized`]): a single giant ring (the
//!   `n = 10M` Algorithm 3 regime) runs on a live `Execution` with
//!   a seeded permutation of `0..n` as identifiers, since one instance
//!   has nobody to share interned values with.
//!
//! Aggregation is order-independent by construction — counters,
//! histograms, min/max, and a commutative digest — because the sink
//! runs on whichever worker retires an instance, in no fixed order.

use crate::arrival::{ArrivalPlan, WorkloadGen, WorkloadSpec};
use crate::engine::{run_materialized, BatchConfig, BatchEngine, BatchOutcome, Termination};
use crate::spec::InstanceSpec;
use ftcolor_model::{sweep, Algorithm, Time};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hash::Hash;
use std::time::Instant;

/// Everything a service run needs to know. All fields feed the seeded
/// generators, so two runs with equal configs produce equal summaries.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ring size of every instance.
    pub n: usize,
    /// Total instances to admit over the run.
    pub instances: u64,
    /// Open-loop arrival rate, instances per sweep round.
    pub rate: f64,
    /// Master seed (arrivals, workload, and per-instance schedules all
    /// derive from it).
    pub seed: u64,
    /// `true` ⇒ synchronous instances; `false` ⇒ seeded random subsets.
    pub sync: bool,
    /// Inclusion probability for random-subset schedules.
    pub p: f64,
    /// Probability an instance carries one crash (fault-plan noise).
    pub crash_prob: f64,
    /// Latest crash time the noise draws.
    pub crash_horizon: Time,
    /// Identifier universe (`ids` drawn distinct from `0..universe`).
    pub universe: u64,
    /// Per-instance fuel bound.
    pub fuel: u64,
    /// Schedule iterations per instance per sweep round.
    pub quantum: u32,
    /// Worker threads (`0` = one per CPU). Affects wall-clock only.
    pub jobs: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            n: 5,
            instances: 1000,
            rate: 64.0,
            seed: 1,
            sync: false,
            p: 0.5,
            crash_prob: 0.0,
            crash_horizon: 8,
            universe: 64,
            fuel: 100_000,
            quantum: 8,
            jobs: 1,
        }
    }
}

/// The deterministic half of a service run's result. Every field is a
/// pure function of the [`ServiceConfig`] — byte-identical JSON at any
/// thread count — which is why wall-clock numbers are banished to
/// [`ServiceTimings`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSummary {
    /// Summary format tag (`ftcolor-service/1`).
    pub schema: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Ring size.
    pub n: usize,
    /// Instances requested.
    pub instances: u64,
    /// Arrival rate echo (stringified so float formatting cannot vary).
    pub rate: String,
    /// Master seed echo.
    pub seed: u64,
    /// Schedule description (`sync` or `random(p=…)`).
    pub sched: String,
    /// Crash-noise probability echo (stringified).
    pub crash_prob: String,
    /// Per-instance fuel echo.
    pub fuel: u64,
    /// Sweep quantum echo.
    pub quantum: u32,
    /// Instances that finished (any termination).
    pub completed: u64,
    /// … of which fully returned,
    pub returned: u64,
    /// … crashed out by their schedule,
    pub crashed: u64,
    /// … or stalled (fuel exhausted — a bug for these wait-free
    /// algorithms under fair schedules).
    pub stalled: u64,
    /// All adjacent returned processes got distinct colors.
    pub proper_ok: bool,
    /// All returned colors fit the algorithm's palette.
    pub palette_ok: bool,
    /// The run verdict: everything completed, nothing stalled, proper,
    /// in palette.
    pub valid: bool,
    /// Returned-color counts, indexed by palette color.
    pub color_histogram: Vec<u64>,
    /// Sweep rounds executed.
    pub rounds: u64,
    /// Median completion latency in sweep rounds.
    pub latency_p50: u64,
    /// 99th-percentile completion latency in sweep rounds.
    pub latency_p99: u64,
    /// Worst completion latency in sweep rounds.
    pub latency_max: u64,
    /// Time steps executed across all instances.
    pub total_steps: u64,
    /// Process activations across all instances.
    pub total_activations: u64,
    /// Largest single-process activation count observed.
    pub max_activations: u64,
    /// Commutative digest over all outcomes (hex) — order-independent,
    /// so equal digests at different `--jobs` mean equal outcome sets.
    pub outputs_digest: String,
    /// Most distinct states held interned at once (0 on the
    /// materialized path; see [`BatchEngine::interned_counts`]). Only
    /// parked configurations are interned: an instance that retires on
    /// its first visit never interns its states, initial ones included,
    /// and each round drops the values no parked instance uses.
    pub interned_states: usize,
    /// Most distinct register values held interned at once.
    pub interned_regs: usize,
    /// Most distinct outputs held interned at once.
    pub interned_outputs: usize,
}

/// The wall-clock half: honest machine-dependent numbers, reported out
/// of band (stderr, bench snapshots) so the summary stays reproducible.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceTimings {
    /// Worker threads actually used.
    pub jobs: usize,
    /// End-to-end wall-clock of the run in milliseconds.
    pub elapsed_ms: u64,
    /// Completed colorings per second (integer; 0 if nothing completed).
    pub colorings_per_sec: u64,
    /// Peak resident set size in KiB (`VmHWM`; 0 where unavailable).
    pub peak_rss_kib: u64,
}

/// Order-independent outcome aggregation (the sink folds into this
/// under a mutex, from whichever worker retires each instance).
struct Acc {
    /// Completions by latency: `latencies[l]` instances took `l` rounds.
    latencies: Vec<u64>,
    histogram: Vec<u64>,
    returned: u64,
    crashed: u64,
    stalled: u64,
    proper_ok: bool,
    palette_ok: bool,
    total_steps: u64,
    total_activations: u64,
    max_activations: u64,
    digest_add: u64,
    digest_xor: u64,
}

impl Acc {
    fn new(palette: usize) -> Self {
        Acc {
            latencies: Vec::new(),
            histogram: vec![0; palette],
            returned: 0,
            crashed: 0,
            stalled: 0,
            proper_ok: true,
            palette_ok: true,
            total_steps: 0,
            total_activations: 0,
            max_activations: 0,
            digest_add: 0,
            digest_xor: 0,
        }
    }

    fn fold<O>(&mut self, outcome: &BatchOutcome<O>, color_of: &impl Fn(&O) -> usize) {
        match outcome.termination {
            Termination::Returned => self.returned += 1,
            Termination::Crashed => self.crashed += 1,
            Termination::Stalled => self.stalled += 1,
        }
        count(
            &mut self.latencies,
            usize::try_from(outcome.completed_round - outcome.admitted_round)
                .expect("latency fits usize"),
        );
        self.total_steps += outcome.time_steps;

        let mut h = fnv(0xcbf2_9ce4_8422_2325, outcome.index as u64);
        h = fnv(h, outcome.termination as u64);
        h = fnv(h, outcome.time_steps);
        let n = outcome.outputs.len();
        for (i, out) in outcome.outputs.iter().enumerate() {
            let color = out.as_ref().map(&color_of);
            if let Some(c) = color {
                if c < self.histogram.len() {
                    self.histogram[c] += 1;
                } else {
                    self.palette_ok = false;
                }
            }
            // Properness among the *returned*: a crashed neighbor
            // constrains nobody (the wait-free guarantee is exactly
            // that survivors stay properly colored). Edges (i, i+1 mod
            // n) cover the whole ring exactly once since n >= 3.
            let next = outcome.outputs[(i + 1) % n].as_ref().map(&color_of);
            if let (Some(a), Some(b)) = (color, next) {
                if a == b {
                    self.proper_ok = false;
                }
            }
            h = fnv(h, color.map_or(0, |c| c as u64 + 1));
        }
        for &a in &outcome.activations {
            self.total_activations += a;
            self.max_activations = self.max_activations.max(a);
            h = fnv(h, a);
        }
        self.digest_add = self.digest_add.wrapping_add(h);
        self.digest_xor ^= h;
    }
}

/// One FNV-1a round over a `u64` word.
fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Counts one sample equal to `value` in `histogram`.
fn count(histogram: &mut Vec<u64>, value: usize) {
    if histogram.len() <= value {
        histogram.resize(value + 1, 0);
    }
    histogram[value] += 1;
}

/// `q`-th percentile (0–100) of the latencies counted in `histogram`
/// (`histogram[l]` samples equal `l`) by nearest rank: the sample at
/// rank `⌊(count − 1) · q / 100⌋` in sorted order. Deterministic integer
/// arithmetic; 0 for an empty histogram.
fn percentile(histogram: &[u64], q: u64) -> u64 {
    let count: u64 = histogram.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((count - 1) * q) / 100;
    let mut seen = 0;
    for (latency, &c) in histogram.iter().enumerate() {
        seen += c;
        if seen > rank {
            return latency as u64;
        }
    }
    unreachable!("rank {rank} is below the sample count {count}")
}

/// Runs one service workload to completion and summarizes it.
///
/// `algorithm` is the label echoed into the summary; `color_of` maps
/// the algorithm's output type onto `0..palette` (the histogram index
/// and properness domain).
///
/// # Panics
///
/// Panics if the configuration is internally inconsistent (ring smaller
/// than 3, identifier universe smaller than the ring, non-positive
/// rate) — the CLI validates before calling.
pub fn run_service<A>(
    alg: &A,
    algorithm: &str,
    palette: usize,
    color_of: impl Fn(&A::Output) -> usize + Sync,
    cfg: &ServiceConfig,
) -> (ServiceSummary, ServiceTimings)
where
    A: Algorithm<Input = u64> + Sync,
    A::State: Eq + Hash + Clone + Send + Sync,
    A::Reg: Eq + Hash + Clone + Send + Sync,
    A::Output: Eq + Hash + Clone + Send + Sync,
{
    let start = Instant::now();
    let mut acc = Acc::new(palette);
    let (rounds, jobs, interned) = if cfg.instances == 1 {
        // Materialized path: a single (typically giant) ring on a live
        // Execution. Identifiers are a seeded permutation of 0..n —
        // identity order would hand Cole–Vishkin a degenerate
        // staircase, and the point of this path is the honest
        // O(log* n) regime.
        let mut ids: Vec<u64> = (0..cfg.n as u64).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let spec = if cfg.sync {
            InstanceSpec::synchronous(ids, cfg.fuel)
        } else {
            InstanceSpec::random(ids, cfg.seed, cfg.p, cfg.fuel)
        };
        let outcome = run_materialized(alg, &spec, cfg.quantum, false);
        let rounds = outcome.completed_round;
        acc.fold(&outcome, &color_of);
        (rounds, 1, (0, 0, 0))
    } else {
        let plan = ArrivalPlan::generate(cfg.seed, cfg.rate, cfg.instances);
        let mut gen = WorkloadGen::new(
            cfg.seed,
            WorkloadSpec {
                n: cfg.n,
                universe: cfg.universe,
                sync: cfg.sync,
                p: cfg.p,
                crash_prob: cfg.crash_prob,
                crash_horizon: cfg.crash_horizon,
                fuel: cfg.fuel,
            },
        );
        let mut engine = BatchEngine::new(
            alg,
            cfg.n,
            BatchConfig {
                jobs: cfg.jobs,
                quantum: cfg.quantum,
                record_traces: false,
            },
        );
        let shared = Mutex::new(acc);
        let sink = |outcome: BatchOutcome<A::Output>| {
            shared.lock().fold(&outcome, &color_of);
        };
        // Any instance admitted at round R is done by R + ceil(fuel /
        // quantum) + 1 visits, so this cap only fires on engine bugs.
        let max_rounds = plan.rounds() as u64 + cfg.fuel / u64::from(cfg.quantum.max(1)) + 16;
        let mut admitted: u64 = 0;
        while (admitted < cfg.instances || engine.in_flight() > 0) && engine.rounds() < max_rounds {
            for _ in 0..plan.arrivals(engine.rounds()) {
                engine.admit(&gen.next_spec());
                admitted += 1;
            }
            engine.run_round(&sink);
        }
        let rounds = engine.rounds();
        let jobs = sweep::resolve_jobs(cfg.jobs);
        let interned = engine.interned_counts();
        acc = shared.into_inner();
        (rounds, jobs, interned)
    };

    let completed = acc.returned + acc.crashed + acc.stalled;
    let valid = completed == cfg.instances && acc.stalled == 0 && acc.proper_ok && acc.palette_ok;
    let summary = ServiceSummary {
        schema: "ftcolor-service/1".to_string(),
        algorithm: algorithm.to_string(),
        n: cfg.n,
        instances: cfg.instances,
        rate: format!("{}", cfg.rate),
        seed: cfg.seed,
        sched: if cfg.sync {
            "sync".to_string()
        } else {
            format!("random(p={})", cfg.p)
        },
        crash_prob: format!("{}", cfg.crash_prob),
        fuel: cfg.fuel,
        quantum: cfg.quantum,
        completed,
        returned: acc.returned,
        crashed: acc.crashed,
        stalled: acc.stalled,
        proper_ok: acc.proper_ok,
        palette_ok: acc.palette_ok,
        valid,
        color_histogram: acc.histogram,
        rounds,
        latency_p50: percentile(&acc.latencies, 50),
        latency_p99: percentile(&acc.latencies, 99),
        latency_max: percentile(&acc.latencies, 100),
        total_steps: acc.total_steps,
        total_activations: acc.total_activations,
        max_activations: acc.max_activations,
        outputs_digest: format!("{:016x}{:016x}", acc.digest_add, acc.digest_xor),
        interned_states: interned.0,
        interned_regs: interned.1,
        interned_outputs: interned.2,
    };
    let elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    let timings = ServiceTimings {
        jobs,
        elapsed_ms,
        colorings_per_sec: completed
            .saturating_mul(1000)
            .checked_div(elapsed_ms.max(1))
            .unwrap_or(0),
        peak_rss_kib: peak_rss_kib(),
    };
    (summary, timings)
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 where the file or field is unavailable.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile on a sorted sample: the definition the
    /// histogram form must reproduce.
    fn sorted_percentile(sorted: &[u64], q: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as u64 * q) / 100;
        sorted[usize::try_from(idx).expect("index fits usize")]
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_sample() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..200 {
            let len = rng.gen_range(0..300usize);
            let spread = rng.gen_range(1..40u64);
            let mut sample: Vec<u64> = (0..len).map(|_| rng.gen_range(0..spread)).collect();
            let mut histogram = Vec::new();
            for &l in &sample {
                count(&mut histogram, l as usize);
            }
            sample.sort_unstable();
            for q in [0, 1, 50, 90, 99, 100] {
                assert_eq!(
                    percentile(&histogram, q),
                    sorted_percentile(&sample, q),
                    "trial {trial}, q {q}, sample {sample:?}"
                );
            }
        }
    }
}
