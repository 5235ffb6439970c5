//! Cross-engine agreement: the exact enumerator, the parallel
//! enumerator, the MTBDD engine and the Monte Carlo estimator must tell
//! the same story on every architecture and policy.

use fmperf::core::{Analysis, MonteCarloOptions};
use fmperf::ftlqn::examples::das_woodside_system;
use fmperf::ftlqn::KnowPolicy;
use fmperf::mama::{arch, ComponentSpace, KnowTable};

#[test]
fn all_engines_agree_on_all_architectures() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    for kind in arch::ArchKind::ALL {
        let mama = arch::build(kind, &sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        for policy in [
            KnowPolicy::AnyFailedComponent,
            KnowPolicy::AllFailedComponents,
        ] {
            let analysis = Analysis::new(&graph, &space)
                .with_knowledge(&table)
                .with_policy(policy);
            let exact = analysis.enumerate();
            assert!((exact.total_probability() - 1.0).abs() < 1e-9);

            let par = analysis.enumerate_parallel(4);
            assert!(
                exact.max_abs_diff(&par) < 1e-12,
                "{}/{policy:?}: parallel diverges",
                kind.name()
            );

            let mtbdd = analysis.compile_mtbdd().distribution();
            assert!(
                exact.max_abs_diff(&mtbdd) < 1e-9,
                "{}/{policy:?}: MTBDD diverges by {}",
                kind.name(),
                exact.max_abs_diff(&mtbdd)
            );

            let mc = analysis.monte_carlo(MonteCarloOptions {
                samples: 60_000,
                seed: 5,
            });
            assert!(
                exact.max_abs_diff(&mc) < 0.01,
                "{}/{policy:?}: Monte Carlo off by {}",
                kind.name(),
                exact.max_abs_diff(&mc)
            );
        }
    }
}

#[test]
fn engines_agree_under_unmonitored_exemption() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let mama = arch::distributed_as_published(&sys, 0.1);
    let space = ComponentSpace::build(&sys.model, &mama);
    let table = KnowTable::build(&graph, &mama, &space);
    let analysis = Analysis::new(&graph, &space)
        .with_knowledge(&table)
        .with_unmonitored_known(true);
    let exact = analysis.enumerate();
    let mtbdd = analysis.compile_mtbdd().distribution();
    let par = analysis.enumerate_parallel(3);
    let mc = analysis.monte_carlo(MonteCarloOptions {
        samples: 60_000,
        seed: 9,
    });
    assert!(exact.max_abs_diff(&mtbdd) < 1e-9);
    assert!(exact.max_abs_diff(&par) < 1e-12);
    assert!(exact.max_abs_diff(&mc) < 0.01);
}

#[test]
fn mtbdd_visits_exponentially_fewer_states() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let mama = arch::hierarchical(&sys, 0.1);
    let space = ComponentSpace::build(&sys.model, &mama);
    let table = KnowTable::build(&graph, &mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
    let exact = analysis.enumerate();
    let compiled = analysis.compile_mtbdd();
    let mtbdd = compiled.distribution();
    assert_eq!(exact.states_explored(), 262_144);
    // One evaluation pass visits each diagram node once: fewer nodes
    // than the 2^8 application states the compile enumerates.
    assert_eq!(mtbdd.states_explored(), compiled.node_count() as u64);
    assert!(
        mtbdd.states_explored() <= 256,
        "{} nodes",
        mtbdd.states_explored()
    );
    assert!(exact.max_abs_diff(&mtbdd) < 1e-9);
}
