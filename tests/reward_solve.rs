//! Step 5 solves one LQN per distinct lowered structure, not one per
//! configuration: `solve_configurations` must return exactly what
//! lowering and solving every configuration on its own returns.

use fmperf::core::ImportanceOptions;
use fmperf::core::{solve_configurations, Analysis, ConfigDistribution, ConfigPerformance};
use fmperf::ftlqn::examples::das_woodside_system;
use fmperf::ftlqn::lower::lower;
use fmperf::ftlqn::{FaultGraph, FtTaskId, FtlqnModel, KnowPolicy};
use fmperf::lqn::SolverOptions;
use fmperf::mama::{arch, synth_plane, ComponentSpace, KnowTable, MamaModel};
use fmperf::mama::{PlaneSpec, PlaneTopology};
use std::collections::HashSet;

/// Every configuration lowered and solved on its own.
fn solve_each(model: &FtlqnModel, dist: &ConfigDistribution) -> Vec<ConfigPerformance> {
    let chains: Vec<FtTaskId> = model.reference_tasks().collect();
    dist.configurations()
        .iter()
        .map(|config| {
            let mut perf = ConfigPerformance::default();
            for &c in &chains {
                perf.throughputs.insert(c, 0.0);
            }
            if !config.is_failed() {
                let lowered = lower(model, config).unwrap();
                let sol = SolverOptions::default().solve(&lowered.model).unwrap();
                for &c in &chains {
                    if let Some(lt) = lowered.task(c) {
                        perf.throughputs.insert(c, sol.task_throughput(lt));
                    }
                }
            }
            perf
        })
        .collect()
}

/// Asserts bit-identity with [`solve_each`] and returns how many
/// operational configurations and distinct lowered structures `dist`
/// has.
fn check(case: &str, model: &FtlqnModel, dist: &ConfigDistribution) -> (usize, usize) {
    let configs = dist.configurations();
    let shared = solve_configurations(model, &configs).unwrap();
    let each = solve_each(model, dist);
    for (a, b) in shared.iter().zip(&each) {
        for (chain, f) in &a.throughputs {
            assert_eq!(f.to_bits(), b.throughputs[chain].to_bits(), "{case}");
        }
    }
    assert_eq!(shared, each, "{case}");
    let operational: Vec<_> = configs.iter().filter(|c| !c.is_failed()).collect();
    let keys: HashSet<_> = operational
        .iter()
        .map(|c| lower(model, c).unwrap().model.structure_key())
        .collect();
    (operational.len(), keys.len())
}

fn distribution(
    model: &FtlqnModel,
    mama: &MamaModel,
    policy: KnowPolicy,
    unmonitored_known: bool,
) -> ConfigDistribution {
    let graph = FaultGraph::build(model).unwrap();
    let space = ComponentSpace::build(model, mama);
    let table = KnowTable::build(&graph, mama, &space);
    Analysis::new(&graph, &space)
        .with_knowledge(&table)
        .with_policy(policy)
        .with_unmonitored_known(unmonitored_known)
        .compile_mtbdd()
        .distribution()
}

const POLICIES: [KnowPolicy; 2] = [
    KnowPolicy::AnyFailedComponent,
    KnowPolicy::AllFailedComponents,
];

#[test]
fn shared_solves_match_a_solve_per_configuration_on_every_model_file() {
    let mut shared_any = false;
    for name in [
        "paper-centralized.fmp",
        "paper-distributed-as-drawn.fmp",
        "paper-distributed-as-published.fmp",
        "paper-hierarchical.fmp",
        "paper-network.fmp",
    ] {
        let path = format!("{}/models/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let m = fmperf::text::parse(&src).unwrap();
        let unmonitored_known = name == "paper-distributed-as-published.fmp";
        for policy in POLICIES {
            let dist = distribution(&m.app, &m.mama, policy, unmonitored_known);
            let (operational, keys) = check(&format!("{name} {policy:?}"), &m.app, &dist);
            shared_any |= keys < operational;
        }
    }
    assert!(shared_any, "the paper models share lowered structures");
}

#[test]
fn shared_solves_match_a_solve_per_configuration_on_the_section6_architectures() {
    let sys = das_woodside_system();
    for p in [0.05, 0.1] {
        for (name, mama) in [
            ("centralized", arch::centralized(&sys, p)),
            ("distributed", arch::distributed(&sys, p)),
            ("hierarchical", arch::hierarchical(&sys, p)),
            ("network", arch::network(&sys, p)),
        ] {
            for policy in POLICIES {
                let dist = distribution(&sys.model, &mama, policy, false);
                check(&format!("{name} p={p} {policy:?}"), &sys.model, &dist);
            }
        }
    }
}

#[test]
fn shared_solves_match_a_solve_per_configuration_on_sampled_planes() {
    for topology in PlaneTopology::ALL {
        let plane = synth_plane(&PlaneSpec::sized(200, topology));
        let graph = FaultGraph::build(&plane.model).unwrap();
        let space = ComponentSpace::build(&plane.model, &plane.mama);
        let table = KnowTable::build(&graph, &plane.mama, &space);
        let est = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .importance(ImportanceOptions {
                samples: 2_000,
                seed: 17,
                ..ImportanceOptions::default()
            });
        let (operational, keys) = check(topology.name(), &plane.model, &est.distribution);
        assert!(
            keys < operational,
            "{}: {operational} configurations, {keys} structures",
            topology.name()
        );
    }
}
