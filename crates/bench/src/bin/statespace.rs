//! Regenerates the paper's in-text §6.3 scalability numbers: the number
//! of states in the solution state space per case (256, 16384, 65536,
//! 262144, 65536) and the time to obtain the distinct operational
//! configurations and their probabilities.
//!
//! The paper measured 0.2–35 s for a Java prototype on a Pentium III;
//! absolute times are incomparable, but the relative growth with
//! component count is the quantity of interest.  Each case is timed
//! twice — the naive reference enumerator and the compiled bitmask
//! kernel — plus the MTBDD engine (compile and evaluate), demonstrating
//! both the kernel's constant-factor win and the "non-state-space-based"
//! speed-up the paper's conclusion anticipates.
//!
//! `--json <path>` additionally writes the naive/compiled measurements
//! as a machine-readable report (see
//! [`fmperf_bench::render_bench_json`]); `benchcheck` compares two such
//! reports.

use fmperf_bench::{case_names, measure_enumeration, render_bench_json};
use fmperf_core::Analysis;
use fmperf_mama::{arch, ComponentSpace, KnowTable};
use std::time::Instant;

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
                eprintln!("unknown argument: {other} (usage: statespace [--json <path>])");
                std::process::exit(2);
            }
        }
    }

    let sys = fmperf_bench::paper_system();
    let graph = sys.fault_graph().expect("canonical model");

    println!("State-space sizes and configuration-probability solution times");
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>9} {:>12} {:>10}",
        "case", "fallible", "states", "naive", "compiled", "speedup", "mtbdd", "configs"
    );

    let mut rows = Vec::new();
    for case in case_names() {
        let row = measure_enumeration(&sys, case);

        // Time the MTBDD engine separately (it is not part of the
        // enumeration criterion, but the paper's conclusion asks for it).
        let t_mtbdd = match case {
            "perfect" => {
                let space = ComponentSpace::app_only(&sys.model);
                let analysis = Analysis::new(&graph, &space);
                let t0 = Instant::now();
                let _ = analysis.compile_mtbdd().distribution();
                t0.elapsed()
            }
            _ => {
                let mama = match case {
                    "centralized" => arch::centralized(&sys, 0.1),
                    "distributed" => arch::distributed_as_published(&sys, 0.1),
                    "hierarchical" => arch::hierarchical(&sys, 0.1),
                    "network" => arch::network(&sys, 0.1),
                    other => panic!("unknown case {other}"),
                };
                let space = ComponentSpace::build(&sys.model, &mama);
                let table = KnowTable::build(&graph, &mama, &space);
                let analysis = Analysis::new(&graph, &space)
                    .with_knowledge(&table)
                    .with_unmonitored_known(case == "distributed");
                let t0 = Instant::now();
                let _ = analysis.compile_mtbdd().distribution();
                t0.elapsed()
            }
        };

        println!(
            "{:<14} {:>10} {:>10} {:>10.2?} {:>10.2?} {:>8.1}x {:>10.2?} {:>10}",
            row.case,
            row.fallible,
            row.states,
            std::time::Duration::from_nanos(row.naive_ns as u64),
            std::time::Duration::from_nanos(row.compiled_ns as u64),
            row.speedup,
            t_mtbdd,
            row.configs,
        );
        rows.push(row);
    }
    println!();
    println!("(paper state counts: 256, 16384, 65536, 262144, 65536;");
    println!(" paper Java times: ~0.2, 2, 8, 35, 8 seconds)");

    if let Some(path) = json_path {
        let json = render_bench_json("enumeration", &rows);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
