//! Ablation: exact enumeration vs parallel enumeration vs the MTBDD
//! engine (compile and evaluate) vs Monte Carlo, on the hierarchical
//! architecture (the paper's worst case, 2^18 states).
//!
//! This quantifies the "non-state-space-based approach" speed-up the
//! paper's conclusion anticipates.

use criterion::{criterion_group, criterion_main, Criterion};
use fmperf_core::{Analysis, MonteCarloOptions};
use fmperf_ftlqn::examples::das_woodside_system;
use fmperf_mama::{arch, ComponentSpace, KnowTable};

fn engines(c: &mut Criterion) {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let mama = arch::hierarchical(&sys, 0.1);
    let space = ComponentSpace::build(&sys.model, &mama);
    let table = KnowTable::build(&graph, &mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

    let mut group = c.benchmark_group("engines-hierarchical-2^18");
    group.sample_size(10);
    group.bench_function("enumerate", |b| b.iter(|| analysis.enumerate()));
    group.bench_function("enumerate-parallel-4", |b| {
        b.iter(|| analysis.enumerate_parallel(4))
    });
    group.bench_function("mtbdd", |b| {
        b.iter(|| analysis.compile_mtbdd().distribution())
    });
    group.bench_function("monte-carlo-50k", |b| {
        b.iter(|| {
            analysis.monte_carlo(MonteCarloOptions {
                samples: 50_000,
                seed: 1,
            })
        })
    });
    group.finish();
}

criterion_group!(benches, engines);
criterion_main!(benches);
