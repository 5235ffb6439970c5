//! Lane-kernel differentials on the shipped paper models: the
//! SIMD-width lane scan must agree with the scalar compiled kernel —
//! and with the naive reference enumerator — **exactly**.
//! `ConfigDistribution` compares probabilities with `==`, so these are
//! bit-identity assertions, not tolerances.

use fmperf::core::{Analysis, LANE_WIDTH};
use fmperf::ftlqn::FaultGraph;
use fmperf::mama::{ComponentSpace, KnowTable};
use fmperf::text::parse;

/// Every shipped model file with its knowledge default (see
/// `tests/mtbdd_engine.rs` for the `paper-distributed-as-published`
/// reading).
const MODELS: [(&str, bool); 5] = [
    ("paper-centralized.fmp", false),
    ("paper-distributed-as-drawn.fmp", false),
    ("paper-distributed-as-published.fmp", true),
    ("paper-hierarchical.fmp", false),
    ("paper-network.fmp", false),
];

fn load(name: &str) -> fmperf::text::ParsedModel {
    let path = format!("{}/models/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn lane_kernel_is_bit_identical_on_every_model_file() {
    assert_eq!(LANE_WIDTH, 8);
    for (name, unmonitored) in MODELS {
        let m = load(name);
        let graph = FaultGraph::build(&m.app).unwrap();
        let space = ComponentSpace::build(&m.app, &m.mama);
        let table = KnowTable::build(&graph, &m.mama, &space);
        let analysis = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_unmonitored_known(unmonitored);
        let kernel = analysis.compile().expect("paper models compile");
        let scalar = kernel.enumerate_scalar();
        assert_eq!(
            scalar,
            analysis.enumerate_naive(),
            "{name}: scalar kernel vs naive"
        );
        // The default engine path is the full-width lane scan.
        assert_eq!(kernel.enumerate(), scalar, "{name}: default vs scalar");
    }
}
