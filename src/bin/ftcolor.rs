//! `ftcolor` — command-line front end for the reproduction.
//!
//! ```text
//! ftcolor color      --alg alg3 --n 16 --input staircase --sched random --timeline
//! ftcolor modelcheck --alg alg2 --ids 0,1,2 --symmetry --por
//! ftcolor fuzz       --alg alg2 --ids 0,1,2 --generations 200 --jobs 4
//! ```
//!
//! Subcommands:
//!
//! * `color` — run a coloring algorithm on a ring and print the result
//!   (optionally as a step-by-step timeline);
//! * `modelcheck` — exhaustively explore every schedule on a small ring
//!   and report safety/livelock (witnesses are delta-debugged before
//!   being surfaced);
//! * `fuzz` — evolutionary adversarial schedule search (violating
//!   genomes are likewise shrunk);
//! * `shrink` — delta-debug a witness file to locally minimal form;
//! * `analyze` — lint shipped algorithms against the §2 model contract
//!   and race-check the threaded runtime's event logs;
//! * `netsim` — run registry algorithms on the message-passing network
//!   substrate under a seeded fault plan (drop/delay/duplicate/reorder,
//!   partitions, crashes) with a replayable delivery trace;
//! * `serve` — drive a seeded open-loop fleet of ring instances through
//!   the struct-of-arrays batch engine (`ftcolor-batch`) and print a
//!   deterministic summary (identical at every `--jobs` value); timing
//!   numbers go to stderr;
//! * `cluster` — run a ring of *real OS processes* (one `ftcolor node`
//!   each) under the same fault-plan vocabulary, with plan crashes
//!   executed as SIGKILL and a recorded routed-frame trace that
//!   `--replay` re-verifies offline;
//! * `node` — one cluster node (spawned by the orchestrator; speaks
//!   line-delimited JSON frames on stdin/stdout).

use ftcolor::analyze::{self, render_json, Diagnostic, RuleId};
use ftcolor::checker::shrink::WITNESS_SCHEMA;
use ftcolor::checker::{
    ExploreStats, FuzzConfig, LivelockWitness, ModelChecker, SafetyViolation, ScheduleFuzzer,
    Shrinker, Witness, WitnessFixture,
};
use ftcolor::cluster::{self, ClusterOptions, ClusterTrace};
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::core::ring::unknown_ring_coloring;
use ftcolor::core::{ring_safety, with_ring_coloring, RING_COLORINGS};
use ftcolor::model::render::{render_ring_coloring, render_schedule, render_timeline};
use ftcolor::model::{inputs, Topology};
use ftcolor::net::{FaultPlan, NetConfig};
use ftcolor::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

/// The error [`emit`] reports once standard output has been closed.
const STDOUT_CLOSED: &str = "standard output closed";

/// Writes one line to standard output. Every line the CLI prints goes
/// through here, so a closed stdout surfaces as an error the command
/// returns with `?` (and `main` ends quietly on) rather than a panic.
fn emit(line: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").map_err(|e| match e.kind() {
        std::io::ErrorKind::BrokenPipe => STDOUT_CLOSED.to_string(),
        _ => format!("cannot write to standard output: {e}"),
    })
}

/// `println!` through [`emit`]: evaluates to `Result<(), String>`.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "color" => cmd_color(&opts),
        "modelcheck" => cmd_modelcheck(&opts),
        "fuzz" => cmd_fuzz(&opts),
        "shrink" => cmd_shrink(&opts),
        "analyze" => cmd_analyze(&opts),
        "certify" => cmd_certify(&opts),
        "netsim" => cmd_netsim(&opts),
        "serve" => cmd_serve(&opts),
        "cluster" => cmd_cluster(&opts),
        "node" => cluster::node_main(std::io::BufReader::new(std::io::stdin()), std::io::stdout()),
        "help" | "--help" | "-h" => out!("{USAGE}"),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`ftcolor … | head`): nothing is left to
        // say and nobody to say it to.
        Err(e) if e == STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ftcolor — wait-free coloring of the asynchronous cycle (PODC 2022 reproduction)

USAGE:
  ftcolor color      [--alg A] [--n N | --ids LIST] [--input KIND] [--sched S] [--seed K] [--timeline]
  ftcolor modelcheck [--alg A] [--n N | --ids LIST] [--input KIND] [--seed K]
                     [--max-configs M] [--symmetry] [--por] [--format text|json]
  ftcolor fuzz       [--alg A] [--n N | --ids LIST] [--input KIND] [--generations G]
                     [--seed K] [--jobs J]
  ftcolor shrink     --in FILE [--out FILE] [--alg A] [--n N | --ids LIST] [--input KIND]
                     [--seed K] [--bound B]
  ftcolor analyze    [--alg NAME|all] [--sizes LIST] [--rules CODES] [--format text|json]
  ftcolor certify    [--alg NAME|all] [--rules CODES] [--format text|json]
  ftcolor netsim     [--alg NAME|all] [--n N] [--seed K] [--faults JSON] [--max-time T]
                     [--format text|json] [--emit-trace]
  ftcolor serve      [--alg A] [--n N] [--instances I] [--rate R] [--seed K]
                     [--sched sync|random] [--p P] [--crash-prob P] [--crash-horizon T]
                     [--universe U] [--fuel F] [--quantum Q] [--jobs J]
                     [--format text|json]
  ftcolor cluster    [--alg NAME|all] [--n N] [--seed K] [--faults JSON] [--rto-ms MS]
                     [--pace-ms MS] [--tick-ms MS] [--max-wall-ms MS] [--format text|json]
                     [--emit-trace] [--record FILE] [--replay FILE]
  ftcolor node
                     (internal: one cluster node, spawned by `ftcolor cluster`;
                     speaks JSON lines on stdin/stdout — see README § wire
                     formats)

FLAGS:
  --alg          alg1 | alg2 | alg2p | alg3 | alg3p
                 (default: alg3 for color; alg2 for modelcheck, fuzz and
                 shrink; alg2p for serve and cluster; all for analyze,
                 certify and netsim). shrink also accepts eagermis;
                 cluster accepts `all`; analyze, certify and netsim accept
                 every registry name or `all`, and analyze also `rt` for
                 the runtime race matrix
  --n            ring size (with --input)              (default 8;
                 5 for serve and cluster)
  --ids          explicit identifiers, e.g. 5,11,7
  --input        staircase | staircase-poly | random | alternating | organ-pipe
                                                       (default random)
  --sched        sync | rr | random | solo | wave      (default random)
  --seed         u64 seed for inputs/schedules          (default 0)
  --timeline     print the step-by-step execution
  --max-configs  exploration cap for modelcheck        (default 2000000);
                 a node expanded below the cap adds all its successors,
                 so a truncated run may hold up to 2^n − 2 more
  --symmetry     modelcheck: canonicalize configurations under the
                 cycle's rotations/reflections (sound only on cycle
                 topologies — guarded; witnesses are de-canonicalized,
                 verdicts provably match full exploration)
  --por          modelcheck: certified partial-order reduction —
                 enumerate only connected activation subsets (plus the
                 canonical-component staircase for solo-terminating
                 algorithms). Refused unless the algorithm ships a POR
                 certificate that survives a dynamic commutation probe;
                 verdicts provably match full exploration. Composes
                 with --symmetry
  --generations  fuzzer generations                    (default 150)
  --jobs         fuzz/serve: worker threads;
                 0 = all CPUs                          (default 1)
                 results are identical for every value
  --in           shrink input: a witness fixture ({schema, alg, ids, raw,
                 shrunk}), a bare safety violation ({description, schedule}),
                 a bare livelock witness ({prefix, cycle}), or a trace
                 ({n, steps}); fixtures carry --alg/--ids themselves
  --out          write the shrunk result as a witness fixture JSON
  --bound        shrink a trace as an activation-bound overrun (> B)
  --sizes        analyze: cycle sizes to lint on, e.g. 5,8 (default 5,8)
  --rules        analyze/certify: keep only these rule codes, e.g.
                 FTC-SWMR-001,FTC-RT-104 (default: all rules)
  --format       modelcheck/analyze/certify/netsim/serve/cluster: text | json
                 (default text)
  --faults       netsim/cluster: inline fault-plan JSON, e.g.
                 '{\"drop\":0.1,\"crashes\":[{\"node\":2,\"at\":5}]}'
                 (default: the clean plan — no faults)
  --max-time     netsim: logical-time budget            (default 100000)
  --instances    serve: total instances to admit        (default 1000;
                 1 = a single materialized ring, the n=10M regime)
  --rate         serve: arrivals per sweep round        (default 64)
  --p            serve: random-subset inclusion prob     (default 0.5)
  --crash-prob   serve: per-instance crash-noise prob    (default 0)
  --crash-horizon serve: latest noise crash time         (default 8)
  --universe     serve: identifier universe size         (default 64)
  --fuel         serve: per-instance step budget         (default 100000)
  --quantum      serve: schedule steps per sweep visit   (default 8)
  --emit-trace   netsim/cluster: include the full trace in the output
  --rto-ms       cluster: node retransmit timeout in ms  (default 25)
  --pace-ms      cluster: node pause per round in ms     (default 15;
                 nonzero stretches runs so SIGKILLs land mid-protocol)
  --tick-ms      cluster: wall ms per fault-plan tick    (default 5)
  --max-wall-ms  cluster: wall-clock cap before the run times out and
                 reports stalls                          (default 30000)
  --record       cluster: write the recorded trace to FILE (pretty JSON)
  --replay       cluster: skip the live run; re-verify a recorded trace
                 offline against in-process node replicas
";

/// The flags each subcommand accepts: `(subcommand, flags taking a
/// value, switches standing alone)`, names space-separated. Any other
/// flag is an error.
const FLAGS: &[(&str, &str, &str)] = &[
    ("color", "alg n ids input sched seed", "timeline"),
    (
        "modelcheck",
        "alg n ids input seed max-configs format",
        "symmetry por",
    ),
    ("fuzz", "alg n ids input seed generations jobs", ""),
    ("shrink", "in out alg n ids input seed bound", ""),
    ("analyze", "alg sizes rules format", ""),
    ("certify", "alg rules format", ""),
    ("netsim", "alg n seed faults max-time format", "emit-trace"),
    (
        "serve",
        "alg n instances rate seed sched p crash-prob crash-horizon universe fuel quantum \
         jobs format",
        "",
    ),
    (
        "cluster",
        "alg n seed faults rto-ms pace-ms tick-ms max-wall-ms format record replay",
        "emit-trace",
    ),
    ("node", "", ""),
    ("help", "", ""),
    ("--help", "", ""),
    ("-h", "", ""),
];

/// Parses `args` against the flags `cmd` accepts (see [`FLAGS`]).
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let Some(&(_, valued, switches)) = FLAGS.iter().find(|(name, _, _)| *name == cmd) else {
        return Err(format!("unknown subcommand `{cmd}`"));
    };
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{a}`"));
        };
        let value = if switches.split_whitespace().any(|f| f == key) {
            "true".to_string()
        } else if valued.split_whitespace().any(|f| f == key) {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        } else {
            return Err(format!("unknown flag --{key} for `{cmd}`"));
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn get<'a>(opts: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map_or(default, String::as_str)
}

/// The value of `--KEY` parsed as a `T`, or `default` when the flag is
/// absent.
fn num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    opts.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|e| format!("bad --{key}: {e}"))
    })
}

/// `--rules CODES` for `analyze` and `certify`: the rule codes to keep,
/// or `None` for every rule.
fn parse_rules(opts: &HashMap<String, String>) -> Result<Option<Vec<RuleId>>, String> {
    let parse = |code: &str| {
        let code = code.trim();
        RuleId::from_code(code).ok_or_else(|| format!("unknown rule code `{code}`"))
    };
    let rules = opts
        .get("rules")
        .map(|list| list.split(',').map(parse).collect());
    rules.transpose()
}

/// The error for an `--alg` outside the catalogue; `extra` lists the
/// subcommand's own names (`rt` for `analyze`).
fn unknown_alg(alg: &str, extra: &[&str]) -> String {
    let mut names: Vec<String> = analyze::SHIPPED.map(String::from).to_vec();
    names.extend(extra.iter().map(|e| format!("`{e}`")));
    format!(
        "unknown --alg `{alg}` (expected one of {}, or `all`)",
        names.join(", ")
    )
}

/// Checks that `ids` properly color the cycle they label: the paper's
/// algorithms assume neighbors hold distinct identifiers, and on equal
/// neighbors a wait-free algorithm can spin forever. Repeats between
/// non-neighbors (`0,1,0,1`) are fine.
fn check_cycle_ids(ids: &[u64]) -> Result<(), String> {
    let n = ids.len();
    if n < 3 {
        return Ok(()); // no cycle; `Topology::cycle` reports that
    }
    match (0..n).find(|&i| ids[i] == ids[(i + 1) % n]) {
        Some(i) => Err(format!(
            "neighbors at positions {i} and {} share id {}; ids must differ \
             between cycle neighbors",
            (i + 1) % n,
            ids[i]
        )),
        None => Ok(()),
    }
}

fn parse_ids(opts: &HashMap<String, String>) -> Result<Vec<u64>, String> {
    if let Some(list) = opts.get("ids") {
        let ids: Vec<u64> = list
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad --ids: {e}"))?;
        check_cycle_ids(&ids).map_err(|e| format!("bad --ids: {e}"))?;
        return Ok(ids);
    }
    let n: usize = num(opts, "n", 8)?;
    let seed: u64 = num(opts, "seed", 0)?;
    Ok(match get(opts, "input", "random") {
        "staircase" => inputs::staircase(n),
        "staircase-poly" => inputs::staircase_poly(n),
        "alternating" => inputs::alternating(n),
        "organ-pipe" => inputs::organ_pipe(n),
        "random" => inputs::random_unique(n, (n as u64).pow(3).max(64), seed),
        other => return Err(format!("unknown --input `{other}`")),
    })
}

fn make_schedule(kind: &str, n: usize, seed: u64) -> Result<Box<dyn Schedule>, String> {
    Ok(match kind {
        "sync" => Box::new(Synchronous::new()),
        "rr" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomSubset::new(seed, 0.5)),
        "solo" => Box::new(SoloRunner::ascending(n)),
        "wave" => Box::new(Wave::new(n, 3, 2)),
        other => return Err(format!("unknown --sched `{other}`")),
    })
}

/// Runs one ring coloring and prints the outcome.
fn run_and_print<A: RingColoring>(
    alg: &A,
    ids: &[u64],
    sched_kind: &str,
    seed: u64,
    timeline: bool,
) -> Result<(), String> {
    out!("ids: {ids:?}")?;
    let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;
    let mut exec = Execution::new(alg, &topo, ids.to_vec());
    if timeline {
        let sched = make_schedule(sched_kind, ids.len(), seed)?;
        let text = render_timeline(&mut exec, sched, 100_000, |r| alg.cell(r));
        out!("{text}")?;
    } else {
        let sched = make_schedule(sched_kind, ids.len(), seed)?;
        exec.run(sched, 10_000_000).map_err(|e| e.to_string())?;
    }
    out!("coloring: {}", render_ring_coloring(exec.outputs()))?;
    out!(
        "max activations: {}",
        topo.nodes()
            .map(|p| exec.activation_count(p))
            .max()
            .unwrap_or(0)
    )?;
    let proper = topo.is_proper_partial_coloring(exec.outputs());
    out!("proper: {proper}")?;
    if !proper {
        return Err("output is not a proper coloring (bug!)".into());
    }
    Ok(())
}

fn cmd_color(opts: &HashMap<String, String>) -> Result<(), String> {
    let ids = parse_ids(opts)?;
    let seed: u64 = num(opts, "seed", 0)?;
    let sched = get(opts, "sched", "random");
    let timeline = opts.contains_key("timeline");
    let name = get(opts, "alg", "alg3");
    with_ring_coloring!(name, alg => run_and_print(alg, &ids, sched, seed, timeline),
        else Err(unknown_ring_coloring(name)))
}

/// Symmetry-invariant part of the modelcheck JSON output: counts shrink
/// under `--symmetry`, these booleans must not — CI diffs this object
/// between the two modes.
#[derive(serde::Serialize)]
struct VerdictJson {
    safety_violated: bool,
    livelock_found: bool,
    truncated: bool,
}

/// `ftcolor modelcheck --format json` payload.
#[derive(serde::Serialize)]
struct ModelcheckJson {
    alg: String,
    ids: Vec<u64>,
    symmetry: bool,
    por: bool,
    verdict: VerdictJson,
    safety_description: Option<String>,
    configs: usize,
    edges: usize,
    fully_terminated_configs: usize,
    stats: ExploreStats,
}

fn cmd_modelcheck(opts: &HashMap<String, String>) -> Result<(), String> {
    let ids = parse_ids(opts)?;
    if ids.len() > 7 {
        return Err("modelcheck needs a small instance (≤ 7 processes)".into());
    }
    let cap: usize = num(opts, "max-configs", 2_000_000)?;
    let symmetry = opts.contains_key("symmetry");
    let por = opts.contains_key("por");
    let format = get(opts, "format", "text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown --format `{format}`"));
    }
    let alg_name = get(opts, "alg", "alg2");
    let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;

    with_ring_coloring!(alg_name, alg => {
        let safety = ring_safety(alg);
        let o = ModelChecker::new(alg, &topo, ids.clone())
            .with_max_configs(cap)
            .with_symmetry(symmetry)
            .with_por(por)
            .explore(&safety)
            .map_err(|e| e.to_string())?;
        if format == "json" {
            let j = ModelcheckJson {
                alg: alg_name.to_string(),
                ids: ids.clone(),
                symmetry,
                por,
                verdict: VerdictJson {
                    safety_violated: o.safety_violation.is_some(),
                    livelock_found: o.livelock.is_some(),
                    truncated: o.truncated,
                },
                safety_description: o.safety_violation.as_ref().map(|v| v.description.clone()),
                configs: o.configs,
                edges: o.edges,
                fully_terminated_configs: o.fully_terminated_configs,
                stats: o.stats.clone(),
            };
            out!(
                "{}",
                serde_json::to_string_pretty(&j).map_err(|e| e.to_string())?
            )?;
            return Ok(());
        }
        out!("{o}")?;
        out!("{}", o.stats)?;
        let sh = Shrinker::new(alg, &topo, ids.clone());
        if let Some(v) = &o.safety_violation {
            out!("safety violation: {}", v.description)?;
            out!("{}", render_schedule(&v.schedule))?;
            if let Some(s) = sh.shrink_safety(&v.schedule, &safety) {
                out!(
                    "shrunk witness ({} -> {} activation slots, {} replays):",
                    s.stats.original_slots,
                    s.stats.shrunk_slots,
                    s.stats.replays
                )?;
                out!("{}", render_schedule(&s.schedule))?;
            }
        }
        if let Some(lw) = &o.livelock {
            out!("livelock witness (prefix then repeat cycle):")?;
            out!("{}", render_schedule(&lw.prefix))?;
            out!("-- cycle --")?;
            out!("{}", render_schedule(&lw.cycle))?;
            if let Some(s) = sh.shrink_livelock(lw) {
                out!(
                    "shrunk witness ({} -> {} activation slots, {} replays):",
                    s.stats.original_slots,
                    s.stats.shrunk_slots,
                    s.stats.replays
                )?;
                out!("{}", render_schedule(&s.witness.prefix))?;
                out!("-- cycle --")?;
                out!("{}", render_schedule(&s.witness.cycle))?;
            }
        }
        Ok(())
    }, else Err(unknown_ring_coloring(alg_name)))
}

fn cmd_fuzz(opts: &HashMap<String, String>) -> Result<(), String> {
    let ids = parse_ids(opts)?;
    let defaults = FuzzConfig::default();
    let config = FuzzConfig {
        seed: num(opts, "seed", defaults.seed)?,
        generations: num(opts, "generations", defaults.generations)?,
        jobs: num(opts, "jobs", defaults.jobs)?,
        ..defaults
    };
    let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;

    let alg_name = get(opts, "alg", "alg2");
    with_ring_coloring!(alg_name, alg => {
        let safety = ring_safety(alg);
        let report = ScheduleFuzzer::new(alg, &topo, ids.clone(), config).run(&safety);
        out!(
            "best score: {} over {} executions",
            report.best_score,
            report.evaluated
        )?;
        if report.best_score >= 1000 {
            out!("starvation found! best schedule:")?;
            out!("{}", render_schedule(&report.best_schedule))?;
        }
        if let Some(v) = &report.safety_violation {
            out!("SAFETY VIOLATION: {v}")?;
            if let Some(genome) = &report.violating_schedule {
                let sh = Shrinker::new(alg, &topo, ids.clone());
                if let Some(s) = sh.shrink_safety(genome, &safety) {
                    out!(
                        "shrunk witness ({} -> {} activation slots, {} replays):",
                        s.stats.original_slots,
                        s.stats.shrunk_slots,
                        s.stats.replays
                    )?;
                    out!("{}", render_schedule(&s.schedule))?;
                }
            }
        }
        Ok(())
    }, else Err(unknown_ring_coloring(alg_name)))
}

/// What `--in` turned out to hold: a ready witness, or a bare schedule
/// (trace) whose violation class is determined by `--bound`/the
/// algorithm's safety predicate.
enum ShrinkInput {
    Witness(Witness),
    Schedule(Vec<ActivationSet>),
}

fn cmd_shrink(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = opts.get("in").ok_or("shrink needs --in <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let serde::Value::Object(pairs) = &value else {
        return Err(format!("{path} must hold a JSON object"));
    };
    let has = |k: &str| pairs.iter().any(|(key, _)| key == k);

    // Shape-detect the four accepted formats; fixtures are
    // self-describing, everything else takes --alg/--ids from the flags.
    let (alg_name, ids, input) = if has("schema") {
        let fx: WitnessFixture = serde_json::from_value(value.clone())
            .map_err(|e| format!("{path} is not a witness fixture: {e}"))?;
        check_cycle_ids(&fx.ids).map_err(|e| format!("{path}: bad fixture ids: {e}"))?;
        (fx.alg, fx.ids, ShrinkInput::Witness(fx.raw))
    } else {
        let alg = get(opts, "alg", "alg2").to_string();
        let ids = parse_ids(opts)?;
        let input = if has("description") {
            let v: SafetyViolation = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a safety violation: {e}"))?;
            ShrinkInput::Witness(Witness::Safety(v))
        } else if has("prefix") {
            let lw: LivelockWitness = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a livelock witness: {e}"))?;
            ShrinkInput::Witness(Witness::Livelock(lw))
        } else if has("steps") {
            let tr: Trace = serde_json::from_value(value.clone())
                .map_err(|e| format!("{path} is not a trace: {e}"))?;
            ShrinkInput::Schedule(tr.into_steps())
        } else {
            return Err(format!(
                "{path}: unrecognized witness shape (expected a fixture, a safety \
                 violation, a livelock witness, or a trace)"
            ));
        };
        (alg, ids, input)
    };

    let bound: Option<u64> = match opts.get("bound") {
        Some(b) => Some(b.parse().map_err(|e| format!("bad --bound: {e}"))?),
        None => None,
    };
    let out = opts.get("out").map(String::as_str);

    if alg_name == "eagermis" {
        return shrink_and_report(
            &EagerMis,
            &alg_name,
            &ids,
            bound,
            &input,
            out,
            mis_violation,
        );
    }
    with_ring_coloring!(alg_name.as_str(), alg => shrink_and_report(
        alg,
        &alg_name,
        &ids,
        bound,
        &input,
        out,
        ring_safety(alg),
    ), else Err(unknown_ring_coloring(&alg_name)))
}

/// Shrinks `input` on `alg`, prints the minimal witness, replay-verifies
/// it, and optionally writes a schema-v2 fixture to `out`.
fn shrink_and_report<A>(
    alg: &A,
    alg_name: &str,
    ids: &[u64],
    bound: Option<u64>,
    input: &ShrinkInput,
    out: Option<&str>,
    safety: impl Fn(&Topology, &[Option<A::Output>]) -> Option<String>,
) -> Result<(), String>
where
    A: Algorithm<Input = u64>,
    A::State: Eq + std::hash::Hash,
    A::Reg: Eq + std::hash::Hash,
    A::Output: Eq + std::hash::Hash,
{
    let topo = Topology::cycle(ids.len()).map_err(|e| e.to_string())?;
    let sh = Shrinker::new(alg, &topo, ids.to_vec());
    let (raw, shrunk, stats) = match input {
        ShrinkInput::Witness(w) => {
            let (s, stats) = sh.shrink_witness(w, &safety).ok_or(
                "input witness does not reproduce its violation class on this \
                 instance (check --alg/--ids)",
            )?;
            (w.clone(), s, stats)
        }
        ShrinkInput::Schedule(steps) => match bound {
            Some(b) => {
                let s = sh
                    .shrink_overrun(steps, b)
                    .ok_or(format!("trace never exceeds the bound {b}"))?;
                let desc = format!("activation bound overrun (> {b})");
                (
                    Witness::Safety(SafetyViolation {
                        description: desc.clone(),
                        schedule: steps.clone(),
                    }),
                    Witness::Safety(SafetyViolation {
                        description: desc,
                        schedule: s.schedule,
                    }),
                    s.stats,
                )
            }
            None => {
                let s = sh.shrink_safety(steps, &safety).ok_or(
                    "trace does not reproduce a safety violation (pass --bound to \
                     shrink an activation-bound overrun instead)",
                )?;
                let desc = s.description.clone().unwrap_or_default();
                (
                    Witness::Safety(SafetyViolation {
                        description: desc.clone(),
                        schedule: steps.clone(),
                    }),
                    Witness::Safety(SafetyViolation {
                        description: desc,
                        schedule: s.schedule,
                    }),
                    s.stats,
                )
            }
        },
    };
    // Independent replay check of the shrunk form (overrun witnesses are
    // outside `reproduces`' two classes; shrink_overrun verified them).
    if bound.is_none() && !sh.reproduces(&shrunk, &safety) {
        return Err("internal error: shrunk witness failed replay verification".into());
    }
    let class = match &shrunk {
        Witness::Safety(_) => "safety",
        Witness::Livelock(_) => "livelock",
    };
    out!("class: {class}")?;
    out!(
        "activation slots: {} -> {} ({} candidate replays)",
        stats.original_slots,
        stats.shrunk_slots,
        stats.replays
    )?;
    match &shrunk {
        Witness::Safety(v) => {
            out!("description: {}", v.description)?;
            out!("{}", render_schedule(&v.schedule))?;
        }
        Witness::Livelock(lw) => {
            out!("{}", render_schedule(&lw.prefix))?;
            out!("-- cycle --")?;
            out!("{}", render_schedule(&lw.cycle))?;
        }
    }
    if let Some(out) = out {
        let fixture = WitnessFixture {
            schema: WITNESS_SCHEMA.to_string(),
            alg: alg_name.to_string(),
            ids: ids.to_vec(),
            raw,
            shrunk,
        };
        let json = serde_json::to_string_pretty(&fixture).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
        out!("wrote {out}")?;
    }
    Ok(())
}

/// `ftcolor analyze`: run the contract linter over registry entries
/// (and/or the runtime race matrix) and exit nonzero on any unwaived
/// diagnostic — the same gate CI enforces.
fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let sizes: Vec<usize> = get(opts, "sizes", "5,8")
        .split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("bad --sizes: {e}")))
        .collect::<Result<_, _>>()?;
    if let Some(n) = sizes.iter().find(|&&n| n < 3) {
        return Err(format!(
            "bad --sizes: {n} (analyze needs sizes >= 3; no smaller cycle exists)"
        ));
    }
    let rules = parse_rules(opts)?;
    let alg = get(opts, "alg", "all");

    let mut diags: Vec<Diagnostic> = Vec::new();
    if alg == "all" {
        for report in analyze::analyze_all(&sizes) {
            diags.extend(report.diagnostics);
        }
    } else if alg != "rt" {
        let report = analyze::analyze_alg(alg, &sizes).ok_or_else(|| unknown_alg(alg, &["rt"]))?;
        diags.extend(report.diagnostics);
    }
    if matches!(alg, "all" | "rt") {
        diags.extend(analyze::race_matrix());
    }
    if let Some(rules) = &rules {
        diags.retain(|d| rules.contains(&d.rule));
    }

    let unwaived = diags.iter().filter(|d| !d.waived).count();
    match get(opts, "format", "text") {
        "json" => out!("{}", render_json(&diags))?,
        "text" => {
            for d in &diags {
                out!("{}", d.render())?;
            }
            out!(
                "analyze: {} diagnostic(s), {unwaived} unwaived",
                diags.len()
            )?;
        }
        other => return Err(format!("unknown --format `{other}`")),
    }
    if unwaived > 0 {
        return Err(format!("{unwaived} unwaived diagnostic(s)"));
    }
    Ok(())
}

/// `ftcolor certify`: statically certify registry algorithms by
/// abstract interpretation over their certified view domains, and exit
/// nonzero on any unwaived finding — the same gate CI enforces.
fn cmd_certify(opts: &HashMap<String, String>) -> Result<(), String> {
    let rules = parse_rules(opts)?;
    let alg = get(opts, "alg", "all");

    let mut reports = if alg == "all" {
        analyze::certify_all()
    } else {
        vec![analyze::certify_alg(alg).ok_or_else(|| unknown_alg(alg, &[]))?]
    };
    if let Some(rules) = &rules {
        for r in &mut reports {
            r.diagnostics.retain(|d| rules.contains(&d.rule));
        }
    }

    let unwaived: usize = reports.iter().map(|r| r.unwaived().count()).sum();
    match get(opts, "format", "text") {
        "json" => out!("{}", analyze::render_cert_json(&reports))?,
        "text" => {
            for r in &reports {
                for d in &r.diagnostics {
                    out!("{}", d.render())?;
                }
                let s = &r.stats;
                let verdict = if s.reachable_states == 0 {
                    "not certifiable (see waived finding)".to_string()
                } else {
                    let solo = match s.solo_bound {
                        Some(b) => format!("solo bound {b}"),
                        None => "no solo bound".to_string(),
                    };
                    format!(
                        "{} states ({} decided), {} transitions, {} view regs, {solo}",
                        s.reachable_states, s.decided_states, s.transitions, s.view_regs
                    )
                };
                out!("certify {}: {verdict}", r.name)?;
            }
            out!("certify: {unwaived} unwaived finding(s)")?;
        }
        other => return Err(format!("unknown --format `{other}`")),
    }
    if unwaived > 0 {
        return Err(format!("{unwaived} unwaived finding(s)"));
    }
    Ok(())
}

/// `ftcolor netsim`: run registry algorithms on the message-passing
/// network substrate under a seeded fault plan and report the outcome.
/// Exits nonzero on an oracle violation, a palette violation, or an
/// unexpected stall — documented-flaw entries (the
/// `termination-only` oracle) are exempt from the stall check only,
/// never from safety.
fn cmd_netsim(opts: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = num(opts, "n", 8)?;
    if n < 3 {
        return Err("netsim needs --n >= 3 (no smaller cycle exists)".into());
    }
    let seed: u64 = num(opts, "seed", 0)?;
    let mut cfg = NetConfig::new(seed);
    cfg.max_time = num(opts, "max-time", cfg.max_time)?;
    let plan: FaultPlan = match opts.get("faults") {
        Some(text) => serde_json::from_str(text).map_err(|e| format!("bad --faults: {e}"))?,
        None => FaultPlan::default(),
    };
    plan.validate(n).map_err(|e| format!("bad --faults: {e}"))?;
    let emit_trace = opts.contains_key("emit-trace");

    let alg = get(opts, "alg", "all");
    let names: Vec<&str> = if alg == "all" {
        analyze::SHIPPED.to_vec()
    } else {
        vec![alg]
    };

    let mut failures: Vec<String> = Vec::new();
    let mut items: Vec<serde::Value> = Vec::new();
    for name in names {
        let out =
            analyze::net_run(name, n, seed, &plan, &cfg).ok_or_else(|| unknown_alg(name, &[]))?;
        let s = &out.summary;
        if !s.valid {
            failures.push(format!("{name}: oracle violation ({})", s.oracle));
        }
        if !s.palette_ok {
            failures.push(format!("{name}: color outside the declared palette"));
        }
        if !s.all_correct_returned && s.oracle != "termination-only" {
            failures.push(format!("{name}: stalled processes {:?}", s.stalled));
        }
        match get(opts, "format", "text") {
            "json" => {
                let mut v = serde_json::to_value(s).map_err(|e| e.to_string())?;
                if emit_trace {
                    let t = serde_json::to_value(&out.trace).map_err(|e| e.to_string())?;
                    if let serde::Value::Object(pairs) = &mut v {
                        pairs.push(("trace".to_string(), t));
                    }
                }
                items.push(v);
            }
            "text" => {
                out!(
                    "{name}: n={} seed={} oracle={} valid={} palette_ok={} returned={}",
                    s.n,
                    s.seed,
                    s.oracle,
                    s.valid,
                    s.palette_ok,
                    s.all_correct_returned
                )?;
                out!(
                    "  colors: {:?}  crashed: {:?}  stalled: {:?}",
                    s.colors,
                    s.crashed,
                    s.stalled
                )?;
                out!(
                    "  rounds_max={} time={} sent={} delivered={} dropped={} \
                     duplicated={} retransmits={}",
                    s.rounds_max,
                    s.time,
                    s.stats.sent,
                    s.stats.delivered,
                    s.stats.dropped + s.stats.partition_dropped,
                    s.stats.duplicated,
                    s.stats.retransmits
                )?;
                out!("  trace: {} sends, digest {}", s.trace_len, s.trace_digest)?;
                out!(
                    "  wire: encoded={} decoded={} bytes={} pool {}/{} hit",
                    s.wire_frames_encoded,
                    s.wire_frames_decoded,
                    s.wire_bytes,
                    s.wire_pool_hits,
                    s.wire_pool_hits + s.wire_pool_misses
                )?;
                if emit_trace {
                    out!("  {}", out.trace.to_json())?;
                }
            }
            other => return Err(format!("unknown --format `{other}`")),
        }
    }
    if get(opts, "format", "text") == "json" {
        out!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Array(items)).map_err(|e| e.to_string())?
        )?;
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(())
}

/// `ftcolor cluster`: run registry algorithms on a ring of real node
/// processes under a fault plan (crashes become SIGKILL), or — with
/// `--replay` — re-verify a recorded trace offline. Exits nonzero on a
/// coloring violation, a palette violation, or an unexpected stall.
fn cmd_cluster(opts: &HashMap<String, String>) -> Result<(), String> {
    let format = get(opts, "format", "text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown --format `{format}`"));
    }

    if let Some(path) = opts.get("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = ClusterTrace::from_json(&text)?;
        let summary = cluster::cluster_replay(&trace)?;
        print_cluster_summary(&summary, format, "replay", None)?;
        return cluster_verdict(&[summary]);
    }

    let n: usize = num(opts, "n", 5)?;
    let seed: u64 = num(opts, "seed", 0)?;
    let plan: FaultPlan = match opts.get("faults") {
        Some(text) => serde_json::from_str(text).map_err(|e| format!("bad --faults: {e}"))?,
        None => FaultPlan::default(),
    };
    plan.validate(n).map_err(|e| format!("bad --faults: {e}"))?;
    let defaults = ClusterOptions::default();
    let copts = ClusterOptions {
        rto_ms: num(opts, "rto-ms", defaults.rto_ms)?,
        pace_ms: num(opts, "pace-ms", 15)?,
        tick_ms: num(opts, "tick-ms", defaults.tick_ms)?.max(1),
        max_wall_ms: num(opts, "max-wall-ms", defaults.max_wall_ms)?,
        ..defaults
    };
    let emit_trace = opts.contains_key("emit-trace");

    let alg = get(opts, "alg", "alg2p");
    let names: Vec<&str> = if alg == "all" {
        RING_COLORINGS.to_vec()
    } else {
        vec![alg]
    };

    let mut summaries = Vec::new();
    for name in names {
        let outcome = cluster::cluster_run(name, n, seed, &plan, &copts)?;
        if let Some(path) = opts.get("record") {
            std::fs::write(path, outcome.trace.to_json_pretty() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        let trace_json = emit_trace.then(|| outcome.trace.to_json());
        print_cluster_summary(&outcome.summary, format, "live", trace_json.as_deref())?;
        summaries.push(outcome.summary);
    }
    cluster_verdict(&summaries)
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let d = ftcolor::batch::ServiceConfig::default();
    let cfg = ftcolor::batch::ServiceConfig {
        n: num(opts, "n", d.n)?,
        instances: num(opts, "instances", d.instances)?,
        rate: num(opts, "rate", d.rate)?,
        // The CLI's seeds all default to 0.
        seed: num(opts, "seed", 0)?,
        sync: match get(opts, "sched", "random") {
            "sync" => true,
            "random" => false,
            other => return Err(format!("serve supports --sched sync|random, got `{other}`")),
        },
        p: num(opts, "p", d.p)?,
        crash_prob: num(opts, "crash-prob", d.crash_prob)?,
        crash_horizon: num(opts, "crash-horizon", d.crash_horizon)?,
        universe: num(opts, "universe", d.universe)?,
        fuel: num(opts, "fuel", d.fuel)?,
        quantum: num(opts, "quantum", d.quantum)?,
        jobs: num(opts, "jobs", d.jobs)?,
    };
    if cfg.n < 3 {
        return Err("serve needs --n >= 3 (no smaller cycle exists)".into());
    }
    if cfg.instances == 0 {
        return Err("serve needs --instances >= 1".into());
    }
    if cfg.instances > 1 && cfg.universe < cfg.n as u64 {
        return Err(format!(
            "--universe {} cannot hold {} distinct identifiers",
            cfg.universe, cfg.n
        ));
    }
    if cfg.rate.is_nan() || cfg.rate <= 0.0 {
        return Err("serve needs --rate > 0".into());
    }
    for (flag, p) in [("--p", cfg.p), ("--crash-prob", cfg.crash_prob)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{flag} = {p} is not a probability in [0, 1]"));
        }
    }
    if cfg.quantum == 0 {
        return Err("serve needs --quantum >= 1".into());
    }
    let format = get(opts, "format", "text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown --format `{format}`"));
    }
    let name = get(opts, "alg", "alg2p");
    with_ring_coloring!(name, alg => serve_with(alg, &cfg, format),
        else Err(unknown_ring_coloring(name)))
}

fn serve_with<A>(alg: &A, cfg: &ftcolor::batch::ServiceConfig, format: &str) -> Result<(), String>
where
    A: RingColoring + Sync,
    A::State: Eq + std::hash::Hash + Clone + Send + Sync,
    A::Reg: Eq + std::hash::Hash + Clone + Send + Sync,
    A::Output: Eq + std::hash::Hash + Clone + Send + Sync,
{
    let palette = usize::try_from(alg.palette()).expect("palette fits usize");
    let color_of = |o: &A::Output| usize::try_from(alg.color(o)).expect("color fits usize");
    let (summary, timings) = ftcolor::batch::run_service(alg, alg.name(), palette, color_of, cfg);
    // Wall-clock facts go to stderr only: stdout is deterministic and
    // byte-identical at every --jobs value (the golden test pins this).
    eprintln!(
        "serve: {} instances in {} ms ({} colorings/s, {} jobs, peak RSS {} KiB)",
        summary.completed,
        timings.elapsed_ms,
        timings.colorings_per_sec,
        timings.jobs,
        timings.peak_rss_kib
    );
    match format {
        "json" => out!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        )?,
        _ => {
            out!(
                "{}: n={} instances={} rate={} seed={} sched={} valid={}",
                summary.algorithm,
                summary.n,
                summary.instances,
                summary.rate,
                summary.seed,
                summary.sched,
                summary.valid
            )?;
            out!(
                "  completed={} returned={} crashed={} stalled={} proper={} palette={}",
                summary.completed,
                summary.returned,
                summary.crashed,
                summary.stalled,
                summary.proper_ok,
                summary.palette_ok
            )?;
            out!(
                "  rounds={} latency p50/p99/max = {}/{}/{} sweeps  colors={:?}",
                summary.rounds,
                summary.latency_p50,
                summary.latency_p99,
                summary.latency_max,
                summary.color_histogram
            )?;
            out!(
                "  steps={} activations={} (max {})  interned s/r/o = {}/{}/{}  digest={}",
                summary.total_steps,
                summary.total_activations,
                summary.max_activations,
                summary.interned_states,
                summary.interned_regs,
                summary.interned_outputs,
                summary.outputs_digest
            )?;
        }
    }
    if summary.valid {
        Ok(())
    } else {
        Err(format!(
            "service verdict invalid: completed={}/{} stalled={} proper={} palette={}",
            summary.completed,
            summary.instances,
            summary.stalled,
            summary.proper_ok,
            summary.palette_ok
        ))
    }
}

fn print_cluster_summary(
    s: &cluster::ClusterSummary,
    format: &str,
    mode: &str,
    trace_json: Option<&str>,
) -> Result<(), String> {
    match format {
        "json" => {
            let mut v = serde_json::to_value(s).map_err(|e| e.to_string())?;
            if let serde::Value::Object(pairs) = &mut v {
                pairs.push(("mode".to_string(), serde::Value::String(mode.to_string())));
            }
            out!(
                "{}",
                serde_json::to_string_pretty(&v).map_err(|e| e.to_string())?
            )?;
        }
        _ => {
            out!(
                "{}: n={} seed={} mode={mode} valid={} palette_ok={} returned={}",
                s.alg,
                s.n,
                s.seed,
                s.valid,
                s.palette_ok,
                s.all_correct_returned
            )?;
            out!(
                "  colors: {:?}  crashed: {:?}  stalled: {:?}  timed_out={}",
                s.colors,
                s.crashed,
                s.stalled,
                s.timed_out
            )?;
            out!(
                "  rounds_max={} wall_ms={} sent={} delivered={} dropped={} \
                 dead_reads={} malformed={}",
                s.rounds_max,
                s.wall_ms,
                s.stats.sent,
                s.stats.delivered,
                s.stats.dropped + s.stats.partition_dropped,
                s.stats.served_dead_reads,
                s.stats.malformed
            )?;
            out!(
                "  trace: {} entries, digest {}",
                s.trace_len,
                s.trace_digest
            )?;
        }
    }
    if let Some(t) = trace_json {
        out!("  {t}")?;
    }
    Ok(())
}

fn cluster_verdict(summaries: &[cluster::ClusterSummary]) -> Result<(), String> {
    let mut failures = Vec::new();
    for s in summaries {
        if !s.valid {
            failures.push(format!("{}: coloring violation", s.alg));
        }
        if !s.palette_ok {
            failures.push(format!("{}: color outside the declared palette", s.alg));
        }
        if !s.all_correct_returned {
            failures.push(format!("{}: stalled nodes {:?}", s.alg, s.stalled));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The flags `FLAGS` lets `cmd` take, valued and standing alone.
    fn row(cmd: &str) -> BTreeSet<&'static str> {
        let r = FLAGS.iter().find(|r| r.0 == cmd).expect("a FLAGS row");
        r.1.split_whitespace()
            .chain(r.2.split_whitespace())
            .collect()
    }

    /// The lines of the help section that opens with `head`.
    fn section(head: &str) -> impl Iterator<Item = &'static str> {
        let body = USAGE.split(head).nth(1).expect("a help section");
        body.lines().take_while(|l| !l.is_empty())
    }

    #[test]
    fn every_synopsis_lists_exactly_the_flags_its_subcommand_accepts() {
        let mut synopses: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in section("USAGE:\n") {
            if let Some(rest) = line.strip_prefix("  ftcolor ") {
                synopses.push((rest.split_whitespace().next().unwrap(), BTreeSet::new()));
            }
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter_map(|w| w.strip_prefix("--"));
            synopses.last_mut().expect("a synopsis").1.extend(flags);
        }
        let commands = FLAGS.iter().map(|r| r.0);
        let commands: Vec<_> = commands
            .filter(|c| !["help", "--help", "-h"].contains(c))
            .collect();
        assert_eq!(synopses.iter().map(|s| s.0).collect::<Vec<_>>(), commands);
        for (cmd, flags) in synopses {
            assert_eq!(flags, row(cmd), "the `{cmd}` synopsis");
        }
    }

    #[test]
    fn the_flags_section_describes_every_accepted_flag_for_its_subcommands() {
        let mut described = BTreeSet::new();
        for entry in section("FLAGS:\n").filter_map(|l| l.strip_prefix("  --")) {
            let mut words = entry.split_whitespace();
            let flag = words.next().expect("a flag name");
            described.insert(flag);
            // A description opening with `sub/sub:` names every
            // subcommand that takes the flag.
            if let Some(names) = words.next().and_then(|w| w.strip_suffix(':')) {
                let takers = FLAGS.iter().map(|r| r.0).filter(|c| row(c).contains(flag));
                let takers: BTreeSet<_> = takers.collect();
                assert_eq!(
                    names.split('/').collect::<BTreeSet<_>>(),
                    takers,
                    "--{flag}"
                );
            }
        }
        assert_eq!(described, FLAGS.iter().flat_map(|r| row(r.0)).collect());
    }
}
