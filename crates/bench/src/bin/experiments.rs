//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p ftcolor-bench --release --bin experiments            # full sweep
//! cargo run -p ftcolor-bench --release --bin experiments -- quick  # CI-sized
//! ```
//!
//! Prints each E1–E10 table to stdout and writes machine-readable rows
//! to `experiments.json` in the current directory. The quick sweep's
//! E6 configuration counts are pinned by the `quick_sweep_counts_are_pinned`
//! test in `e6_modelcheck.rs`.

use ftcolor_bench::*;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct AllResults {
    e1: Vec<e1_alg1_linear::Row>,
    e2: Vec<e2_chain_bound::Row>,
    e2_sweep: Vec<e2_chain_bound::SweepRow>,
    e3: Vec<e3_alg2_linear::Row>,
    e4_contraction: Vec<e4_cole_vishkin::ContractionRow>,
    e4_exhaustive: Vec<e4_cole_vishkin::ExhaustiveRow>,
    e5: Vec<e5_alg3_logstar::Row>,
    e6: Vec<e6_modelcheck::Row>,
    e7: Vec<e7_mis_impossible::Row>,
    e7_ssb: Vec<e7_mis_impossible::SsbRow>,
    e8: Vec<e8_general_graphs::Row>,
    e9_cv: Vec<e9_baselines::CvRow>,
    e9_renaming: Vec<e9_baselines::RenameRow>,
    e10: Vec<e10_crash_tolerance::Row>,
    e11: Vec<e11_decoupled::Row>,
    e14: Vec<e14_net::Row>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let t0 = Instant::now();
    let section = |name: &str| println!("\n===== {name} ({:.1?} elapsed) =====", t0.elapsed());

    section("E1");
    let e1 = if quick {
        e1_alg1_linear::run(&[3, 5, 16, 100], 2)
    } else {
        e1_alg1_linear::run(&[3, 4, 5, 8, 16, 32, 100, 316, 1000], 4)
    };
    print!("{}", e1_alg1_linear::table(&e1));

    section("E2");
    let e2 = if quick {
        e2_chain_bound::run(&[8, 20], 2)
    } else {
        e2_chain_bound::run(&[8, 20, 50, 120], 5)
    };
    print!("{}", e2_chain_bound::table(&e2));
    let e2_sweep =
        e2_chain_bound::run_chain_sweep(if quick { 120 } else { 480 }, &[1, 2, 4, 8, 16, 32, 64]);
    print!("{}", e2_chain_bound::sweep_table(&e2_sweep));

    section("E3");
    let e3 = if quick {
        e3_alg2_linear::run(&[3, 6, 16], 2)
    } else {
        e3_alg2_linear::run(&[3, 4, 6, 12, 33, 100, 316], 4)
    };
    print!("{}", e3_alg2_linear::table(&e3));

    section("E4");
    let e4c = e4_cole_vishkin::run_contraction();
    let e4e = if quick {
        e4_cole_vishkin::run_exhaustive(300, 60, 80)
    } else {
        e4_cole_vishkin::run_exhaustive(4096, 200, 256)
    };
    print!("{}", e4_cole_vishkin::table(&e4c, &e4e));

    section("E5 (headline)");
    let e5 = if quick {
        e5_alg3_logstar::run(&[4, 16, 64, 256, 1024], 1024)
    } else {
        e5_alg3_logstar::run(
            &[
                4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
            ],
            16384,
        )
    };
    print!("{}", e5_alg3_logstar::table(&e5));
    match e5_alg3_logstar::crossover(&e5) {
        Some(x) => println!("crossover (Alg3 beats Alg2 on the staircase) at n = {x}"),
        None => println!("no crossover within the measured sizes"),
    }

    section("E6 (exhaustive model checking)");
    let e6 = e6_modelcheck::run(if quick { 400_000 } else { 5_000_000 });
    print!("{}", e6_modelcheck::table(&e6));

    section("E7 (MIS impossibility)");
    let e7 = e7_mis_impossible::run();
    let e7s = e7_mis_impossible::run_ssb();
    print!("{}", e7_mis_impossible::table(&e7, &e7s));

    section("E8 (general graphs)");
    let e8 = e8_general_graphs::run(17);
    print!("{}", e8_general_graphs::table(&e8));

    section("E9 (baselines)");
    let e9c = if quick {
        e9_baselines::run_cv(&[8, 64, 512])
    } else {
        e9_baselines::run_cv(&[8, 64, 512, 4096, 32768, 262144])
    };
    let e9r = e9_baselines::run_renaming(&[2, 3, 4, 5, 6, 8, 10], if quick { 2 } else { 5 });
    print!("{}", e9_baselines::table(&e9c, &e9r));

    section("E10 (crash tolerance)");
    let mut e10 = e10_crash_tolerance::run(if quick { 24 } else { 60 }, 3);
    e10.extend(e10_crash_tolerance::run_threads(
        if quick { 12 } else { 32 },
        5,
    ));
    print!("{}", e10_crash_tolerance::table(&e10));

    section("E11 (DECOUPLED model separation)");
    let e11 = if quick {
        e11_decoupled::run(&[12, 40], 3)
    } else {
        e11_decoupled::run(&[12, 40, 120, 400], 3)
    };
    print!("{}", e11_decoupled::table(&e11));

    section("E14 (message-passing substrate)");
    let e14 = if quick {
        e14_net::run(&[16, 100], 3)
    } else {
        e14_net::run(&[100, 1_000, 10_000], 3)
    };
    print!("{}", e14_net::table(&e14));

    let all = AllResults {
        e1,
        e2,
        e2_sweep,
        e3,
        e4_contraction: e4c,
        e4_exhaustive: e4e,
        e5,
        e6,
        e7,
        e7_ssb: e7s,
        e8,
        e9_cv: e9c,
        e9_renaming: e9r,
        e10,
        e11,
        e14,
    };
    let json = serde_json::to_string_pretty(&all).expect("serializable results");
    std::fs::write("experiments.json", json).expect("write experiments.json");
    println!(
        "\nAll experiments done in {:.1?}; rows written to experiments.json",
        t0.elapsed()
    );
}
