//! `fleet`: the `ftcolor serve` path. `run_service` on Algorithm 2′
//! (`alg2p`) over a stream of `C5` instances arriving open-loop at a
//! fixed rate per sweep round, single-threaded.
//!
//! The traced run cannot put spans inside `run_service`, so it drives
//! the same seeded workload through the public calls `run_service` is
//! made of — [`WorkloadGen::next_spec`], [`BatchEngine::admit`],
//! [`BatchEngine::run_round`] — and folds outcomes exactly as the
//! service does. [`traced_service`] returns a full [`ServiceSummary`],
//! which the benchmark's tests require to equal `run_service`'s.

use crate::spans::Recorder;
use crate::{
    bytes_per, fnv, int, num, peak_rss_kib, probe, rss_kib, text, timed, timed_setup, Rep, Scale,
    Work, FNV_BASIS,
};
use ftcolor_batch::{
    run_service, ArrivalPlan, BatchConfig, BatchEngine, BatchOutcome, ServiceConfig,
    ServiceSummary, Termination, WorkloadGen, WorkloadSpec,
};
use ftcolor_core::FiveColoringPatched;
use ftcolor_model::Topology;
use parking_lot::Mutex;
use serde::Value;
use std::time::Instant;

/// Colors of Algorithm 2′.
pub const PALETTE: usize = 5;

/// Random-walk steps of the traced run's model probes.
const PROBE_STEPS: usize = 20_000;

/// The service configuration of the workload at `scale`.
pub fn config(seed: u64, scale: Scale) -> ServiceConfig {
    let (instances, rate) = match scale {
        Scale::Full => (300_000, 100_000.0),
        Scale::Tiny => (3_000, 1_000.0),
    };
    ServiceConfig {
        n: 5,
        instances,
        rate,
        seed,
        sync: false,
        p: 0.5,
        crash_prob: 0.05,
        crash_horizon: 8,
        universe: 64,
        fuel: 100_000,
        quantum: 8,
        jobs: 1,
    }
}

/// The arrival plan and instance stream `run_service` builds for `cfg`.
pub fn inputs(cfg: &ServiceConfig) -> (ArrivalPlan, WorkloadGen) {
    let spec = WorkloadSpec {
        n: cfg.n,
        universe: cfg.universe,
        sync: cfg.sync,
        p: cfg.p,
        crash_prob: cfg.crash_prob,
        crash_horizon: cfg.crash_horizon,
        fuel: cfg.fuel,
    };
    (
        ArrivalPlan::generate(cfg.seed, cfg.rate, cfg.instances),
        WorkloadGen::new(cfg.seed, spec),
    )
}

fn color_of(c: &u64) -> usize {
    usize::try_from(*c).expect("color fits usize")
}

/// Everything a traced fleet run measures besides its summary.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Most instances in flight after any admission.
    pub peak_in_flight: u64,
    /// Wall time from the round each instance was due to its
    /// retirement, nanoseconds, sorted.
    pub latency_ns: Vec<u64>,
    /// `BatchEngine::approx_interner_bytes` at the end of the run.
    pub interner_bytes: u64,
}

/// Order-independent outcome aggregation, folding exactly as
/// `run_service` does (same counters, same commutative digest).
struct Acc {
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
    wall_latency_ns: Vec<u64>,
    sink_calls: u64,
    sink_ns: u64,
}

impl Acc {
    fn new() -> Self {
        Acc {
            latencies: Vec::new(),
            histogram: vec![0; PALETTE],
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
            wall_latency_ns: Vec::new(),
            sink_calls: 0,
            sink_ns: 0,
        }
    }

    fn fold(&mut self, outcome: &BatchOutcome<u64>) {
        match outcome.termination {
            Termination::Returned => self.returned += 1,
            Termination::Crashed => self.crashed += 1,
            Termination::Stalled => self.stalled += 1,
        }
        self.latencies
            .push(outcome.completed_round - outcome.admitted_round);
        self.total_steps += outcome.time_steps;
        let mut h = fnv(FNV_BASIS, outcome.index as u64);
        h = fnv(h, outcome.termination as u64);
        h = fnv(h, outcome.time_steps);
        let n = outcome.outputs.len();
        for (i, out) in outcome.outputs.iter().enumerate() {
            let color = out.as_ref().map(color_of);
            if let Some(c) = color {
                if c < self.histogram.len() {
                    self.histogram[c] += 1;
                } else {
                    self.palette_ok = false;
                }
            }
            let next = outcome.outputs[(i + 1) % n].as_ref().map(color_of);
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

/// Nearest-rank percentile on a sorted sample, as `run_service`
/// computes it.
fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as u64 * q) / 100;
    sorted[usize::try_from(idx).expect("index fits usize")]
}

/// Drives the workload of `cfg` through the engine's public calls with
/// one span per layer per sweep round, and summarizes it exactly as
/// `run_service` would.
pub fn traced_service(
    cfg: &ServiceConfig,
    plan: &ArrivalPlan,
    gen: &mut WorkloadGen,
    rec: &mut Recorder,
) -> (ServiceSummary, FleetTrace) {
    let root = rec.open("batch.service");
    let alg = FiveColoringPatched;
    let mut engine = BatchEngine::new(
        &alg,
        cfg.n,
        BatchConfig {
            jobs: cfg.jobs,
            quantum: cfg.quantum,
            record_traces: false,
        },
    );
    let acc = Mutex::new(Acc::new());
    let max_rounds = plan.rounds() as u64 + cfg.fuel / u64::from(cfg.quantum.max(1)) + 16;
    let mut due: Vec<Instant> = Vec::new();
    let mut admitted: u64 = 0;
    let mut peak_in_flight: u64 = 0;
    while (admitted < cfg.instances || engine.in_flight() > 0) && engine.rounds() < max_rounds {
        due.push(Instant::now());
        let arrivals = plan.arrivals(engine.rounds());

        // One spec at a time, as `run_service` admits them, so the run
        // holds no round-sized buffer the service never holds.
        let (mut gen_ns, mut admit_ns) = (0u64, 0u64);
        for _ in 0..arrivals {
            let t0 = Instant::now();
            let spec = gen.next_spec();
            let t1 = Instant::now();
            engine.admit(&spec);
            gen_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
            admit_ns += u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        rec.aggregate("batch.arrival", arrivals, gen_ns);
        rec.aggregate("batch.engine.admit", arrivals, admit_ns);
        admitted += arrivals;
        peak_in_flight = peak_in_flight.max(engine.in_flight() as u64);

        let span = rec.open("batch.engine.sweep");
        let (calls0, ns0) = {
            let a = acc.lock();
            (a.sink_calls, a.sink_ns)
        };
        let due = &due;
        let sink = |outcome: BatchOutcome<u64>| {
            let t0 = Instant::now();
            let mut a = acc.lock();
            a.fold(&outcome);
            let due_at = due[usize::try_from(outcome.admitted_round).expect("round fits usize")];
            a.wall_latency_ns
                .push(u64::try_from(t0.duration_since(due_at).as_nanos()).unwrap_or(u64::MAX));
            a.sink_calls += 1;
            a.sink_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        };
        engine.run_round(&sink);
        let (calls1, ns1) = {
            let a = acc.lock();
            (a.sink_calls, a.sink_ns)
        };
        rec.aggregate("batch.service.sink", calls1 - calls0, ns1 - ns0);
        rec.close(span);
    }
    let rounds = engine.rounds();
    let interned = engine.interned_counts();
    let interner_bytes = engine.approx_interner_bytes() as u64;
    drop(engine);
    rec.close(root);

    let mut acc = acc.into_inner();
    acc.latencies.sort_unstable();
    acc.wall_latency_ns.sort_unstable();
    let completed = acc.returned + acc.crashed + acc.stalled;
    let summary = ServiceSummary {
        schema: "ftcolor-service/1".to_string(),
        algorithm: "alg2p".to_string(),
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
        valid: completed == cfg.instances && acc.stalled == 0 && acc.proper_ok && acc.palette_ok,
        color_histogram: acc.histogram,
        rounds,
        latency_p50: percentile(&acc.latencies, 50),
        latency_p99: percentile(&acc.latencies, 99),
        latency_max: acc.latencies.last().copied().unwrap_or(0),
        total_steps: acc.total_steps,
        total_activations: acc.total_activations,
        max_activations: acc.max_activations,
        outputs_digest: format!("{:016x}{:016x}", acc.digest_add, acc.digest_xor),
        interned_states: interned.0,
        interned_regs: interned.1,
        interned_outputs: interned.2,
    };
    let trace = FleetTrace {
        peak_in_flight,
        latency_ns: acc.wall_latency_ns,
        interner_bytes,
    };
    (summary, trace)
}

/// The untraced measured call.
pub fn service(cfg: &ServiceConfig) -> ServiceSummary {
    run_service(&FiveColoringPatched, "alg2p", PALETTE, color_of, cfg).0
}

/// One repetition of `fleet`.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Rep {
    let (setup_s, (cfg, plan, mut gen)) = timed_setup(|| {
        let cfg = config(seed, scale);
        let (plan, gen) = inputs(&cfg);
        (cfg, plan, gen)
    });
    // The first instance of the stream is the probes' instance; a clone
    // of the generator keeps the measured stream untouched.
    let probe_ids = gen.clone().next_spec().ids;

    let rss_before = rss_kib();
    let mut rec = Recorder::new();
    let (summary, trace, wall_s) = if traced {
        let (summary, trace) = traced_service(&cfg, &plan, &mut gen, &mut rec);
        let wall = rec.total_ns("batch.service") as f64 / 1e9;
        (summary, Some(trace), wall)
    } else {
        let (summary, wall) = timed(|| service(&cfg));
        (summary, None, wall)
    };
    let peak_kib = peak_rss_kib();

    let failed = summary.stalled
        + cfg.instances.saturating_sub(summary.completed)
        + u64::from(!(summary.proper_ok && summary.palette_ok));
    let oracle_error = (!summary.valid).then(|| format!("fleet run is not valid: {summary:?}"));

    let mut layers = Vec::new();
    if let Some(trace) = trace {
        let topo = Topology::cycle(cfg.n).expect("n >= 3");
        let walk = probe::walk(
            &FiveColoringPatched,
            &topo,
            &[probe_ids],
            seed,
            PROBE_STEPS,
            false,
        );
        let latency_ms = |q| percentile(&trace.latency_ns, q) as f64 / 1e6;
        let grown = |units: u64| bytes_per(rss_before, peak_kib, units);
        layers = vec![
            ("model.executor.step_ns", walk.step_ns),
            (
                "model.executor.activations",
                summary.total_activations as f64,
            ),
            ("model.encode.encode_delta_ns", walk.encode_delta_ns),
            ("model.encode.restore_ns", walk.restore_ns),
            (
                "model.encode.interned_values",
                (summary.interned_states + summary.interned_regs + summary.interned_outputs) as f64,
            ),
            ("model.encode.interner_bytes", trace.interner_bytes as f64),
            (
                "batch.arrival.gen_s",
                rec.self_ns("batch.arrival") as f64 / 1e9,
            ),
            (
                "batch.engine.admit_s",
                rec.self_ns("batch.engine.admit") as f64 / 1e9,
            ),
            (
                "batch.engine.sweep_s",
                rec.self_ns("batch.engine.sweep") as f64 / 1e9,
            ),
            (
                "batch.service.sink_s",
                rec.total_ns("batch.service.sink") as f64 / 1e9,
            ),
            ("batch.engine.rounds", summary.rounds as f64),
            ("batch.engine.peak_in_flight", trace.peak_in_flight as f64),
            ("batch.engine.bytes_per_instance", grown(cfg.instances)),
            (
                "batch.engine.bytes_per_in_flight",
                grown(trace.peak_in_flight),
            ),
            ("batch.engine.latency_p50_ms", latency_ms(50)),
            ("batch.engine.latency_p99_ms", latency_ms(99)),
        ];
    }

    Rep {
        workload: "fleet",
        seed,
        traced,
        params: vec![
            ("algorithm", text("alg2p")),
            ("n", int(cfg.n as u64)),
            ("instances", int(cfg.instances)),
            ("rate_per_round", num(cfg.rate)),
            ("sched", text(format!("random(p={})", cfg.p))),
            ("crash_prob", num(cfg.crash_prob)),
            ("crash_horizon", int(cfg.crash_horizon)),
            ("universe", int(cfg.universe)),
            ("fuel", int(cfg.fuel)),
            ("quantum", int(u64::from(cfg.quantum))),
            ("jobs", int(cfg.jobs as u64)),
        ],
        setup_s,
        wall_s,
        peak_rss_kib: peak_kib,
        ops: cfg.instances,
        failed,
        oracle_error,
        det: det_fields(&summary),
        work: Work {
            colorings: summary.completed,
            configs: summary.total_steps,
            processes: summary.completed * cfg.n as u64,
            events: summary.total_activations,
        },
        layers,
        spans: rec.into_spans(),
    }
}

/// The fields pinned for the default seed.
fn det_fields(s: &ServiceSummary) -> Vec<(&'static str, Value)> {
    vec![
        ("outputs_digest", text(s.outputs_digest.clone())),
        ("completed", int(s.completed)),
        ("rounds", int(s.rounds)),
        ("latency_p50_rounds", int(s.latency_p50)),
        ("latency_p99_rounds", int(s.latency_p99)),
        ("latency_max_rounds", int(s.latency_max)),
    ]
}
