//! Measures the budget-guard overhead on the hot enumeration path: the
//! guarded ladder's exact scan rung under a generous default budget must
//! cost at most a few percent over the raw engine (the
//! cooperative-cancellation polls every `CHECK_INTERVAL` states are all
//! it adds).  Overhead above [`MAX_OVERHEAD`] on any case large enough
//! to time reliably (≥ [`MIN_GATED_STATES`] states) exits 1.
//!
//! `--json <path>` writes the measurements as a machine-readable report
//! (see [`fmperf_bench::render_guarded_json`]); `benchcheck` compares
//! two such reports and re-applies the same overhead gate.

use fmperf_bench::{case_names, measure_guarded, render_guarded_json};

/// Maximum allowed `guarded_ns / unguarded_ns` ratio on gated cases.
const MAX_OVERHEAD: f64 = 1.03;

/// Cases below this state count are too fast to time against a 3% gate;
/// they are still measured and reported, just not gated.
const MIN_GATED_STATES: u64 = 65_536;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other} (usage: guardbench [--json <path>])");
                std::process::exit(2);
            }
        }
    }

    let sys = fmperf_bench::paper_system();

    println!(
        "Budget-guard overhead: guarded scan rung vs raw enumeration \
         (noise floor over {} paired reps)",
        fmperf_bench::GUARDED_REPS
    );
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>12} {:>9} {:>8}",
        "case", "fallible", "states", "unguarded", "guarded", "overhead", "configs"
    );

    let mut rows = Vec::new();
    for case in case_names() {
        let row = measure_guarded(&sys, case);
        println!(
            "{:<14} {:>9} {:>9} {:>12.2?} {:>12.2?} {:>8.2}% {:>8}",
            row.case,
            row.fallible,
            row.states,
            std::time::Duration::from_nanos(row.unguarded_ns as u64),
            std::time::Duration::from_nanos(row.guarded_ns as u64),
            (row.overhead - 1.0) * 100.0,
            row.configs,
        );
        rows.push(row);
    }

    if let Some(path) = &json_path {
        let json = render_guarded_json(&rows);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    let mut failed = false;
    for row in rows.iter().filter(|r| r.states >= MIN_GATED_STATES) {
        if row.overhead > MAX_OVERHEAD {
            eprintln!(
                "guardbench: {} pays {:.2}% budget-check overhead (gate {:.0}%)",
                row.case,
                (row.overhead - 1.0) * 100.0,
                (MAX_OVERHEAD - 1.0) * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "budget checks stay under {:.0}% overhead on every case with >= {MIN_GATED_STATES} states",
        (MAX_OVERHEAD - 1.0) * 100.0
    );
}
