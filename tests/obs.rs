//! Recorder correctness across the five paper models: metrics merge
//! exactly under parallel enumeration, and instrumentation — enabled or
//! not — never perturbs a result bit.

use fmperf::core::{Analysis, AnalysisBudget, EngineKind, GuardedOptions};
use fmperf::ftlqn::FaultGraph;
use fmperf::mama::{ComponentSpace, KnowTable};
use fmperf::obs::{Counter, MetricsRecorder, NullRecorder};
use fmperf::text::parse_lenient;

/// Every checked-in paper model with its exact P[failed] under the
/// blockwise Gray walker (golden values: any engine change that
/// perturbs a single bit of the trajectory trips these).
const MODELS: [(&str, f64); 5] = [
    ("models/paper-centralized.fmp", 0.3538467639622855),
    ("models/paper-distributed-as-drawn.fmp", 0.39482710890963413),
    (
        "models/paper-distributed-as-published.fmp",
        0.5695327899999291,
    ),
    ("models/paper-hierarchical.fmp", 0.4280211883165981),
    ("models/paper-network.fmp", 0.3214716221207389),
];

fn with_analysis<T>(path: &str, f: impl FnOnce(Analysis<'_>) -> T) -> T {
    let src = std::fs::read_to_string(path).unwrap();
    let parsed = parse_lenient(&src).unwrap();
    let graph = FaultGraph::build(&parsed.model.app).unwrap();
    let space = ComponentSpace::build(&parsed.model.app, &parsed.model.mama);
    let table = KnowTable::build(&graph, &parsed.model.mama, &space);
    f(Analysis::new(&graph, &space).with_knowledge(&table))
}

/// Per-thread metric cells must merge exactly: the counter totals of a
/// 4-way parallel scan equal the single-threaded totals, and the memo
/// fast-path invariant (hits + misses = states visited) holds under any
/// partitioning.
#[test]
fn parallel_metric_merge_is_exact_on_all_paper_models() {
    for (path, _) in MODELS {
        with_analysis(path, |analysis| {
            let single = MetricsRecorder::new();
            let seq = analysis.with_recorder(&single).enumerate();

            let sharded = MetricsRecorder::new();
            let par = analysis.with_recorder(&sharded).enumerate_parallel(4);

            // Partitioned accumulation reorders float additions; the
            // counters below must still merge *exactly*.
            assert!(seq.max_abs_diff(&par) < 1e-12, "{path}: results diverge");
            for c in [
                Counter::StatesVisited,
                Counter::GrayCodeSteps,
                Counter::KnowGuardEvals,
            ] {
                assert_eq!(
                    single.counter(c),
                    sharded.counter(c),
                    "{path}: {} differs between 1 and 4 threads",
                    c.name()
                );
            }
            for (label, rec) in [("single", &single), ("parallel", &sharded)] {
                assert_eq!(
                    rec.counter(Counter::MemoHits) + rec.counter(Counter::MemoMisses),
                    rec.counter(Counter::StatesVisited),
                    "{path}/{label}: memo accounting leaks states"
                );
            }
            assert_eq!(
                single.counter(Counter::StatesVisited),
                seq.states_explored(),
                "{path}: recorder disagrees with the distribution"
            );
        });
    }
}

/// Instrumented runs — whether the recorder is a `NullRecorder` or a
/// live `MetricsRecorder` — must be bit-identical to the plain engines
/// and to the pre-instrumentation golden values.
#[test]
fn recorders_never_perturb_results() {
    for (path, golden) in MODELS {
        with_analysis(path, |analysis| {
            let plain = analysis.enumerate();
            assert_eq!(
                plain.failed_probability(),
                golden,
                "{path}: golden value drifted"
            );

            let null = NullRecorder;
            let nulled = analysis.with_recorder(&null).enumerate();
            assert_eq!(plain.max_abs_diff(&nulled), 0.0, "{path}: NullRecorder");
            assert_eq!(nulled.failed_probability(), golden, "{path}: NullRecorder");

            let metrics = MetricsRecorder::new();
            let metered = analysis.with_recorder(&metrics).enumerate();
            assert_eq!(plain.max_abs_diff(&metered), 0.0, "{path}: MetricsRecorder");
            assert_eq!(
                metered.failed_probability(),
                golden,
                "{path}: MetricsRecorder"
            );
        });
    }
}

/// Regression for the Monte Carlo rung's provenance: when the guarded
/// ladder degrades all the way down, `states_explored` reports the
/// samples actually drawn (not 0) and the estimate carries a finite
/// batch-means confidence interval.
#[test]
fn degraded_monte_carlo_reports_samples_and_ci() {
    with_analysis("models/paper-hierarchical.fmp", |analysis| {
        let opts = GuardedOptions {
            budget: AnalysisBudget {
                deadline: None,
                max_states: 16,
                max_mtbdd_nodes: 1,
                max_memo_entries: 1,
            },
            samples: 40_000,
            seed: 7,
            threads: 2,
            ..GuardedOptions::default()
        };
        let report = analysis.analyze_guarded(&opts);
        assert_eq!(
            report.engine,
            EngineKind::MonteCarlo,
            "{:?}",
            report.descents
        );
        assert_eq!(report.descents.len(), 2);

        let est = report.estimate.expect("MC rung always carries an estimate");
        assert_eq!(est.samples, 40_000);
        assert_eq!(report.distribution.states_explored(), est.samples);
        assert!(est.batches >= 2, "batch-means CI needs ≥ 2 batches");
        assert!(est.failed_half_width.is_finite() && est.failed_half_width >= 0.0);
        assert!((est.failed_mean - report.distribution.failed_probability()).abs() < 1e-12);
    });
}
