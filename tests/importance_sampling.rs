//! Differential validation of the rare-event importance-sampling engine.
//!
//! The contract has two regimes.  On enumerable models (every shipped
//! `models/*.fmp` file, the four §6 architectures, small synthesised
//! planes) the weighted estimator's 99% confidence interval must cover
//! the exact failure probability.  Beyond exact reach the estimator
//! must be self-consistent: independent seeds agree within their
//! intervals, the effective sample size stays healthy, and the weights
//! normalise.  A regression pins the reason the engine exists: on a
//! rare-event plane, plain Monte Carlo sees nothing at a budget where
//! importance sampling already brackets the truth.

use fmperf::core::{
    Analysis, AnalysisBudget, EngineKind, GuardedOptions, ImportanceOptions, MonteCarloOptions,
};
use fmperf::ftlqn::FaultGraph;
use fmperf::mama::{
    arch, synth_plane, ComponentSpace, KnowTable, PlaneSpec, PlaneTopology, SynthPlane,
};
use fmperf::text::parse;
use proptest::prelude::*;

/// Every shipped model file with its knowledge default (the
/// `paper-distributed-as-published` reading treats unmonitored
/// components as known; see `tests/mtbdd_engine.rs`).
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

/// Asserts that one importance-sampling run brackets the exact failure
/// probability within its 99% interval (plus a hair of float slack).
fn assert_covers(analysis: &Analysis<'_>, samples: u64, seed: u64, what: &str) {
    let exact = analysis.enumerate().failed_probability();
    let est = analysis.importance(ImportanceOptions {
        samples,
        seed,
        ..ImportanceOptions::default()
    });
    assert!(
        (est.info.failed_mean - exact).abs() <= est.failed_half_width_99 + 1e-12,
        "{what}: IS mean {} ± {} (99%) misses exact {exact}",
        est.info.failed_mean,
        est.failed_half_width_99
    );
    assert!(
        (est.distribution.total_probability() - 1.0).abs() < 1e-9,
        "{what}: pooled distribution must self-normalise ({})",
        est.distribution.total_probability()
    );
    let is = est.info.is.expect("importance estimates carry IS info");
    assert!(
        (is.mean_weight - 1.0).abs() < 0.05,
        "{what}: mean weight {} should estimate 1",
        is.mean_weight
    );
    assert!(is.ess > 0.0 && is.ess <= samples as f64);
}

#[test]
fn is_ci_covers_exact_on_every_model_file() {
    for (name, unmonitored) in MODELS {
        let m = load(name);
        let graph = FaultGraph::build(&m.app).unwrap();
        let space = ComponentSpace::build(&m.app, &m.mama);
        let table = KnowTable::build(&graph, &m.mama, &space);
        let analysis = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_unmonitored_known(unmonitored);
        assert_covers(&analysis, 60_000, 0xBEEF, name);
    }
}

#[test]
fn is_ci_covers_exact_on_every_paper_architecture() {
    let sys = fmperf::ftlqn::examples::das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let archs: [(&str, fmperf::mama::MamaModel); 4] = [
        ("centralized", arch::centralized(&sys, 0.1)),
        ("distributed", arch::distributed(&sys, 0.1)),
        ("hierarchical", arch::hierarchical(&sys, 0.1)),
        ("network", arch::network(&sys, 0.1)),
    ];
    for (name, mama) in archs {
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        assert_covers(&analysis, 60_000, 0xACE, name);
    }
}

/// A tiny rare-event plane (2 chains ⇒ ≤ 16 fallible components) that
/// every exact engine can still ground-truth.
fn tiny_plane(topology: PlaneTopology, server_fail: f64, mgmt_fail: f64) -> SynthPlane {
    synth_plane(&PlaneSpec {
        chains: 2,
        topology,
        server_fail,
        mgmt_fail,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On enumerable synthesised planes across the whole failure-rate
    /// range — from the rare-event regime to everyday 10% components —
    /// the weighted estimator covers exact ground truth, replays
    /// deterministically under its seed, keeps a positive effective
    /// sample size and normalises its weights.
    #[test]
    fn is_agrees_with_exact_on_small_planes(
        topo_ix in 0usize..3,
        server_fail in prop_oneof![Just(1e-5), Just(1e-3), Just(0.1)],
        mgmt_fail in prop_oneof![Just(5e-5), Just(0.05)],
        seed in 0u64..1 << 32,
    ) {
        let plane = tiny_plane(PlaneTopology::ALL[topo_ix], server_fail, mgmt_fail);
        let graph = FaultGraph::build(&plane.model).unwrap();
        let space = ComponentSpace::build(&plane.model, &plane.mama);
        let table = KnowTable::build(&graph, &plane.mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

        let exact = analysis.enumerate().failed_probability();
        let options = ImportanceOptions { samples: 20_000, seed, ..ImportanceOptions::default() };
        let est = analysis.importance(options);
        // 4 half-widths: a 99% interval is allowed to miss ~1% of seeds,
        // which a 16-case property would hit routinely.
        prop_assert!(
            (est.info.failed_mean - exact).abs() <= 4.0 * est.failed_half_width_99 + 1e-12,
            "mean {} ± {} vs exact {exact}", est.info.failed_mean, est.failed_half_width_99
        );
        prop_assert!((est.distribution.total_probability() - 1.0).abs() < 1e-9);
        let is = est.info.is.expect("IS info present");
        prop_assert!(is.ess > 0.0);
        prop_assert!(is.weight_cv.is_finite());
        prop_assert!((is.mean_weight - 1.0).abs() < 0.2, "mean weight {}", is.mean_weight);
        // Deterministic replay: same options, same estimate — info and
        // interval alike.
        let replay = analysis.importance(options);
        prop_assert_eq!(est.info, replay.info);
        prop_assert_eq!(est.failed_half_width_99, replay.failed_half_width_99);
        prop_assert_eq!(&est.distribution, &replay.distribution);
    }
}

/// The reason this engine exists: at rates where a failure shows up
/// once per ~300k samples, a 20k-sample Monte Carlo run reports zero —
/// while the same 20k samples under the biased proposal already
/// bracket the exact answer.
#[test]
fn naive_mc_misses_what_importance_finds() {
    let plane = tiny_plane(PlaneTopology::DeepHierarchy, 1e-6, 1e-6);
    let graph = FaultGraph::build(&plane.model).unwrap();
    let space = ComponentSpace::build(&plane.model, &plane.mama);
    let table = KnowTable::build(&graph, &plane.mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

    let exact = analysis.enumerate().failed_probability();
    assert!(exact > 0.0 && exact < 1e-4, "plane failure must be rare");

    let mc = analysis.monte_carlo(MonteCarloOptions {
        samples: 20_000,
        seed: 11,
    });
    assert_eq!(
        mc.failed_probability(),
        0.0,
        "plain MC must see no failure at this budget"
    );

    let est = analysis.importance(ImportanceOptions {
        samples: 20_000,
        seed: 11,
        ..ImportanceOptions::default()
    });
    assert!(est.info.failed_mean > 0.0, "IS must see the rare event");
    assert!(
        (est.info.failed_mean - exact).abs() <= est.failed_half_width_99,
        "IS mean {} ± {} misses exact {exact}",
        est.info.failed_mean,
        est.failed_half_width_99
    );
}

/// Beyond exact reach (a ~200-fallible-component plane) the estimator
/// must be self-consistent: independent seeds land within each other's
/// widened intervals, weights normalise, and the effective sample size
/// stays a meaningful fraction of the budget.
#[test]
fn large_plane_estimates_are_self_consistent() {
    let spec = PlaneSpec::sized(200, PlaneTopology::DeepHierarchy);
    assert!(spec.fallible_components() > 64, "beyond the kernel's reach");
    let plane = synth_plane(&spec);
    let graph = FaultGraph::build(&plane.model).unwrap();
    let space = ComponentSpace::build(&plane.model, &plane.mama);
    let table = KnowTable::build(&graph, &plane.mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

    let run = |seed| {
        analysis.importance(ImportanceOptions {
            samples: 12_000,
            seed,
            ..ImportanceOptions::default()
        })
    };
    let a = run(101);
    let b = run(202);
    for est in [&a, &b] {
        assert!(
            est.info.failed_mean > 0.0,
            "the trunk makes failure visible"
        );
        assert!((est.distribution.total_probability() - 1.0).abs() < 1e-9);
        let is = est.info.is.unwrap();
        assert!(is.ess > 500.0, "ESS {} too small to trust", is.ess);
        assert!(
            (is.mean_weight - 1.0).abs() < 0.1,
            "mean weight {} should estimate 1",
            is.mean_weight
        );
    }
    let gap = (a.info.failed_mean - b.info.failed_mean).abs();
    let widths = a.failed_half_width_99 + b.failed_half_width_99;
    assert!(
        gap <= widths,
        "seeds disagree: {} vs {} (joint 99% width {widths})",
        a.info.failed_mean,
        b.info.failed_mean
    );
}

/// The guarded ladder's bottom rung auto-selects importance sampling on
/// rare-event models and records the choice in the estimate.
#[test]
fn guarded_ladder_auto_selects_importance_on_a_rare_plane() {
    let plane = tiny_plane(PlaneTopology::RegionalTree, 5e-5, 5e-5);
    let graph = FaultGraph::build(&plane.model).unwrap();
    let space = ComponentSpace::build(&plane.model, &plane.mama);
    let table = KnowTable::build(&graph, &plane.mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
    assert!(analysis.has_rare_event_components());

    let report = analysis.analyze_guarded(&GuardedOptions {
        budget: AnalysisBudget {
            max_states: 16,
            ..AnalysisBudget::default()
        },
        samples: 8_000,
        seed: 3,
        threads: 1,
        ..GuardedOptions::default()
    });
    assert_eq!(report.engine, EngineKind::Importance);
    assert_eq!(report.descents.len(), 2, "both exact rungs declined");
    let est = report.estimate.expect("sampling reports an estimate");
    let is = est.is.expect("auto-selected IS records its diagnostics");
    assert_eq!(is.bias, fmperf::core::importance::DEFAULT_BIAS);
    assert_eq!(is.mixture, fmperf::core::importance::DEFAULT_MIXTURE);
    assert!((report.distribution.total_probability() - 1.0).abs() < 1e-9);
}
