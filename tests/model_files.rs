//! The shipped `models/*.fmp` files are first-class artifacts: parsing
//! them and running the analysis must reproduce the paper's numbers,
//! exactly as the in-code builders do.

use fmperf::core::Analysis;
use fmperf::ftlqn::FaultGraph;
use fmperf::mama::{ComponentSpace, KnowTable};
use fmperf::text::parse;

fn load(name: &str) -> fmperf::text::ParsedModel {
    let path = format!("{}/models/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn failed_probability(m: &fmperf::text::ParsedModel, unmonitored_known: bool) -> f64 {
    let graph = FaultGraph::build(&m.app).unwrap();
    let space = ComponentSpace::build(&m.app, &m.mama);
    let table = KnowTable::build(&graph, &m.mama, &space);
    Analysis::new(&graph, &space)
        .with_knowledge(&table)
        .with_unmonitored_known(unmonitored_known)
        .compile_mtbdd()
        .distribution()
        .failed_probability()
}

#[test]
fn centralized_model_file_reproduces_table1() {
    let m = load("paper-centralized.fmp");
    assert_eq!(m.app.task_count(), 6);
    assert_eq!(m.mama.connector_count(), 16);
    let pf = failed_probability(&m, false);
    assert!((pf - 0.3536).abs() < 0.001, "failed probability {pf}");
}

#[test]
fn distributed_model_files_reproduce_both_variants() {
    let drawn = load("paper-distributed-as-drawn.fmp");
    let pf = failed_probability(&drawn, false);
    assert!(
        (pf - 0.395).abs() < 0.002,
        "as-drawn failed probability {pf}"
    );

    let published = load("paper-distributed-as-published.fmp");
    let pf = failed_probability(&published, true);
    assert!(
        (pf - 0.1396).abs() < 0.001,
        "as-published failed probability {pf}"
    );
}

#[test]
fn hierarchical_and_network_model_files_reproduce_table2() {
    let m = load("paper-hierarchical.fmp");
    let pf = failed_probability(&m, false);
    assert!(
        (pf - 0.428).abs() < 0.002,
        "hierarchical failed probability {pf}"
    );

    let m = load("paper-network.fmp");
    let pf = failed_probability(&m, false);
    assert!(
        (pf - 0.321).abs() < 0.002,
        "network failed probability {pf}"
    );
}

#[test]
fn compiled_kernel_is_bit_identical_on_every_model_file() {
    for (name, unmonitored) in [
        ("paper-centralized.fmp", false),
        ("paper-distributed-as-drawn.fmp", false),
        ("paper-distributed-as-published.fmp", true),
        ("paper-hierarchical.fmp", false),
        ("paper-network.fmp", false),
    ] {
        let m = load(name);
        let graph = FaultGraph::build(&m.app).unwrap();
        let space = ComponentSpace::build(&m.app, &m.mama);
        let table = KnowTable::build(&graph, &m.mama, &space);
        let analysis = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_unmonitored_known(unmonitored);
        let kernel = analysis
            .compile()
            .unwrap_or_else(|| panic!("{name}: must compile"));
        // `==` on distributions: exact probability equality, not epsilon.
        assert_eq!(kernel.enumerate(), analysis.enumerate_naive(), "{name}");
    }
}

#[test]
fn model_files_have_reward_declarations() {
    for name in ["paper-centralized.fmp", "paper-network.fmp"] {
        let m = load(name);
        assert_eq!(m.rewards.len(), 2, "{name}");
        assert!(m.rewards.iter().all(|&(_, w)| w == 1.0));
    }
}
