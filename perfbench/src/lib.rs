//! One repetition of each benchmark workload, measured from outside the
//! program.
//!
//! Every workload module exposes `run(seed, scale, traced) -> Rep`:
//!
//! 1. **set-up** — build the workload's inputs from the seed, timed
//!    by [`timed_setup`] (the median per-build time is `setup_s`);
//! 2. **the measured call** — one call into the layer under test
//!    (`run_service`, `ParallelModelChecker::explore`,
//!    `run_materialized`, `run_net`), timed with [`Instant`], with the
//!    peak resident set read right after it;
//! 3. **the oracle** — the workload's correctness check on the outputs,
//!    plus the deterministic fields that `run.py` compares against
//!    `expected.json` for the default seed.
//!
//! In traced mode the measured call is wrapped in [`spans::Recorder`]
//! spans (the fleet loop is driven through the engine's public calls so
//! that arrival, admission, sweep and sink get spans of their own), and
//! the [`probe`]s time single public calls afterwards. Traced runs are
//! never used for the end-to-end numbers.

use serde::{Number, Value};
use std::time::Instant;

pub mod explore;
pub mod fleet;
pub mod netsim;
pub mod probe;
pub mod ring;
pub mod spans;

/// The seed whose deterministic fields are pinned in `expected.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up is timed in this many batches per repetition; `setup_s` is
/// the median per-build time.
const SETUP_REPEATS: usize = 7;

/// Workload size: `Full` is what the benchmark measures, `Tiny` is what
/// the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A size that runs in milliseconds.
    Tiny,
}

/// Work units completed by the measured call; `run.py` divides each by
/// the call's wall time to get the four throughput metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Ring colorings completed.
    pub colorings: u64,
    /// Configurations reached.
    pub configs: u64,
    /// Processes run.
    pub processes: u64,
    /// Events processed.
    pub events: u64,
}

/// A whole number as a JSON value.
pub fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A measured number as a JSON value.
pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// A string as a JSON value.
pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The result of one repetition of one workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether spans and probes were recorded.
    pub traced: bool,
    /// Every parameter that shapes the workload.
    pub params: Vec<(&'static str, Value)>,
    /// Median per-build set-up time in seconds (see [`timed_setup`]).
    pub setup_s: f64,
    /// Wall time of the measured call, in seconds.
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`) right after the measured call, KiB.
    pub peak_rss_kib: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed the oracle.
    pub failed: u64,
    /// `None` when the oracle passed, else what it found.
    pub oracle_error: Option<String>,
    /// Fields that are a pure function of the seed and size.
    pub det: Vec<(&'static str, Value)>,
    /// Work done by the measured call.
    pub work: Work,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<spans::Span>,
}

impl Rep {
    /// The repetition as one line of JSON.
    pub fn to_json(&self) -> String {
        let report = obj([
            ("workload", text(self.workload)),
            ("seed", int(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("params", obj(self.params.iter().cloned())),
            ("setup_s", num(self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("peak_rss_kib", int(self.peak_rss_kib)),
            ("ops", int(self.ops)),
            ("failed", int(self.failed)),
            (
                "oracle_error",
                self.oracle_error.clone().map_or(Value::Bool(false), text),
            ),
            ("det", obj(self.det.iter().cloned())),
            (
                "work",
                obj([
                    ("colorings", int(self.work.colorings)),
                    ("configs", int(self.work.configs)),
                    ("processes", int(self.work.processes)),
                    ("events", int(self.work.events)),
                ]),
            ),
            ("layers", obj(self.layers.iter().map(|&(k, v)| (k, num(v))))),
            (
                "spans",
                Value::Array(self.spans.iter().map(spans::Span::to_json).collect()),
            ),
        ]);
        serde_json::to_string(&report).expect("reports always encode")
    }
}

/// Shortest batch of set-up builds worth timing, in seconds. Builds
/// that take nanoseconds are timed in batches of this length, so that
/// the clock's resolution does not decide `setup_s`.
const SETUP_BATCH_S: f64 = 2e-3;

/// Times the workload's input build: [`SETUP_REPEATS`] batches of
/// builds, each at least [`SETUP_BATCH_S`] long (one build when a
/// single build takes longer). Returns the median per-build time in
/// seconds and one more build to run the workload on.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut batch = |builds: usize| {
        let t0 = Instant::now();
        for _ in 0..builds {
            drop(std::hint::black_box(build()));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut builds = 1usize;
    while batch(builds) < SETUP_BATCH_S && builds < 1 << 24 {
        builds *= 2;
    }
    let mut times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| batch(builds) / builds as f64)
        .collect();
    (median(&mut times), build())
}

/// Times `f` once, returning its result and the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Median of a sample (sorts it in place); 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A `VmHWM` / `VmRSS` field of `/proc/self/status` in KiB, or 0 where
/// unavailable.
fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, KiB.
pub fn peak_rss_kib() -> u64 {
    proc_status_kib("VmHWM:")
}

/// Current resident set of this process, KiB.
pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:")
}

/// Bytes the peak resident set grew by since `rss_before_kib`, divided
/// by `units` (the bytes-per-thing per-layer metrics).
pub fn bytes_per(rss_before_kib: u64, peak_kib: u64, units: u64) -> f64 {
    (peak_kib.saturating_sub(rss_before_kib) * 1024) as f64 / units.max(1) as f64
}

/// One 64-bit FNV-1a round over a `u64` word — the digest primitive of
/// the deterministic fields.
pub fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Counts the processes of a ring that broke its coloring: a process
/// that is not `crashed` but has no output, or whose color is outside
/// `0..palette` or equal to a neighbor's. A process counts once.
pub fn coloring_failures(
    outputs: &[Option<u64>],
    palette: u64,
    crashed: impl Fn(usize) -> bool,
) -> u64 {
    let n = outputs.len();
    (0..n)
        .filter(|&i| match outputs[i] {
            None => !crashed(i),
            Some(c) => {
                c >= palette
                    || outputs[(i + 1) % n] == Some(c)
                    || outputs[(i + n - 1) % n] == Some(c)
            }
        })
        .count() as u64
}
