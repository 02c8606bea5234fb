//! Golden fixture for `ftcolor serve --format json`.
//!
//! The service summary is the deterministic half of a run — every field
//! is a pure function of the configuration, independent of thread count
//! and wall clock. That makes it goldenable: one representative seeded
//! workload (alg2p, C5, 400 instances, crash noise) is committed as a
//! fixture, and this test re-runs the binary on every `cargo test` and
//! demands byte-identical stdout. Any drift in the engine, the arrival
//! process, the workload generator, the aggregation, or the JSON
//! rendering shows up as a diff here before it shows up in production
//! numbers.
//!
//! A second test pins the jobs-invariance contract directly at the
//! process boundary: `--jobs 1` and `--jobs 4` must print the same
//! bytes. A third pins the deterministic outcome of the two E16
//! workloads at their quick sizes (a 20k-instance `C5` burst fleet and
//! a 200k-process synchronous ring), calling the library directly.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_service
//! ```

use ftcolor::batch::{run_service, ServiceConfig};
use ftcolor::core::{FastFiveColoringPatched, FiveColoringPatched};
use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURE: &str = "service_alg2p_c5.json";

const ARGS: &[&str] = &[
    "serve",
    "--alg",
    "alg2p",
    "--n",
    "5",
    "--instances",
    "400",
    "--rate",
    "32",
    "--seed",
    "2022",
    "--sched",
    "random",
    "--p",
    "0.5",
    "--crash-prob",
    "0.15",
    "--format",
    "json",
];

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn serve_stdout(jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ftcolor"))
        .args(ARGS)
        .args(["--jobs", jobs])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("summary JSON is UTF-8")
}

#[test]
fn serve_summary_matches_the_committed_fixture() {
    let current = serve_stdout("1");
    let path = fixture_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &current).expect("write fixture");
        println!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_service",
            path.display()
        )
    });
    assert_eq!(
        committed, current,
        "serve summary drifted from the committed fixture; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
    // Sanity on the fixture itself, so a blessed-but-broken summary
    // cannot hide behind byte equality.
    assert!(committed.contains("\"schema\": \"ftcolor-service/1\""));
    assert!(committed.contains("\"valid\": true"));
    assert!(committed.contains("\"completed\": 400"));
}

#[test]
fn serve_summary_is_byte_identical_across_jobs() {
    assert_eq!(
        serve_stdout("1"),
        serve_stdout("4"),
        "the deterministic summary must not depend on --jobs"
    );
}

/// The E16 quick rows: `fleet-c5` (Algorithm 2′, 20,000 `C5` instances
/// in one arrival round, 5% crash noise) and `ring-logstar`
/// (Algorithm 3′, one synchronous ring of 200,000 processes). Every
/// pinned field is independent of `jobs` and of the wall clock.
#[test]
fn e16_quick_rows_are_pinned() {
    let fleet = ServiceConfig {
        n: 5,
        instances: 20_000,
        rate: 1e12,
        seed: 2022,
        sync: false,
        p: 0.5,
        crash_prob: 0.05,
        crash_horizon: 8,
        universe: 64,
        fuel: 100_000,
        quantum: 8,
        jobs: 0,
    };
    let ring = ServiceConfig {
        n: 200_000,
        instances: 1,
        rate: 1.0,
        seed: 7,
        sync: true,
        crash_prob: 0.0,
        universe: 200_000,
        jobs: 1,
        ..fleet.clone()
    };
    let color = |c: &u64| usize::try_from(*c).expect("color fits usize");
    let rows = [
        run_service(&FiveColoringPatched, "alg2p", 5, color, &fleet).0,
        run_service(&FastFiveColoringPatched, "alg3p", 5, color, &ring).0,
    ];
    let actual: Vec<_> = rows
        .iter()
        .map(|s| {
            assert!(s.valid, "{s:?}");
            (
                s.completed,
                s.rounds,
                s.latency_p50,
                s.latency_p99,
                s.outputs_digest.as_str(),
            )
        })
        .collect();
    assert_eq!(
        actual,
        [
            (20_000, 3, 1, 2, "d5b9ba67053b810c7f3470c88ee2febc"),
            (1, 1, 1, 1, "1150360c5a9c22271150360c5a9c2227"),
        ]
    );
}
