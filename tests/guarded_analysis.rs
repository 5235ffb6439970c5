//! Property-based tests for the budget-guarded degradation ladder.
//!
//! Random layered applications are wrapped in random [`synthesize`]d
//! management planes and analysed under adversarial budgets — expired
//! deadlines, one-state caps, single-node MTBDD limits, empty memo
//! allowances.  The ladder's contract: it never panics, it always comes
//! back with a distribution, and whenever the exact scan rung answers
//! the result is bit-identical to the unguarded engine.

use fmperf::core::{Analysis, AnalysisBudget, EngineKind, GuardedOptions};
use fmperf::ftlqn::{FaultGraph, FtlqnModel, RequestTarget};
use fmperf::lqn::Multiplicity;
use fmperf::mama::{synthesize, ComponentSpace, KnowTable, SynthOptions};
use proptest::prelude::*;
use std::time::Duration;

/// Parameters drawn by proptest; the scenario is built deterministically
/// from them.
#[derive(Debug, Clone)]
struct Params {
    chains: usize,
    servers: usize,
    fail_app: Vec<f64>,
    mgmt_fail: f64,
    domains: usize,
    hierarchical: bool,
}

fn params() -> impl Strategy<Value = Params> {
    (
        1usize..=2,
        1usize..=2,
        proptest::collection::vec(0.0f64..0.4, 6),
        0.0f64..0.4,
        1usize..=3,
        any::<bool>(),
    )
        .prop_map(
            |(chains, servers, fail_app, mgmt_fail, domains, hierarchical)| Params {
                chains,
                servers,
                fail_app,
                mgmt_fail,
                domains,
                hierarchical,
            },
        )
}

/// Budgets that hit every refusal path: expired deadlines, one-state
/// caps, single-node MTBDD limits, empty memo allowances — plus the
/// generous defaults that should sail through on the first rung.
fn budgets() -> impl Strategy<Value = AnalysisBudget> {
    (
        prop_oneof![
            Just(None),
            Just(Some(Duration::ZERO)),
            Just(Some(Duration::from_secs(30))),
        ],
        prop_oneof![
            Just(1u64),
            Just(16),
            Just(1024),
            Just(1u64 << 22),
            Just(u64::MAX)
        ],
        prop_oneof![Just(1usize), Just(64), Just(usize::MAX)],
        prop_oneof![Just(0usize), Just(8), Just(usize::MAX)],
    )
        .prop_map(
            |(deadline, max_states, max_mtbdd_nodes, max_memo_entries)| AnalysisBudget {
                deadline,
                max_states,
                max_mtbdd_nodes,
                max_memo_entries,
            },
        )
}

/// A layered app (users → department task → server pool over priority
/// services) plus a synthesised management plane.
fn build(p: &Params) -> (FtlqnModel, fmperf::mama::MamaModel) {
    let mut app = FtlqnModel::new();
    let pc = app.add_processor("user-pc", 0.0, Multiplicity::Infinite);

    let mut server_entries = Vec::new();
    for s in 0..p.servers {
        let proc = app.add_processor(
            format!("sp{s}"),
            p.fail_app[s % p.fail_app.len()],
            Multiplicity::Finite(1),
        );
        let task = app.add_task(
            format!("srv{s}"),
            proc,
            p.fail_app[(s + 1) % p.fail_app.len()],
            Multiplicity::Finite(1),
        );
        server_entries.push(app.add_entry(format!("serve{s}"), task, 0.3 + 0.1 * s as f64));
    }

    for c in 0..p.chains {
        let proc = app.add_processor(
            format!("ap{c}"),
            p.fail_app[(2 + c) % p.fail_app.len()],
            Multiplicity::Finite(1),
        );
        let task = app.add_task(
            format!("app{c}"),
            proc,
            p.fail_app[(4 + c) % p.fail_app.len()],
            Multiplicity::Finite(1),
        );
        let users = app.add_reference_task(format!("users{c}"), pc, 0.0, 5, 1.0);
        let e_u = app.add_entry(format!("u{c}"), users, 0.0);
        let e_a = app.add_entry(format!("a{c}"), task, 0.2);
        app.add_request(e_u, RequestTarget::Entry(e_a), 1.0, None);
        let svc = app.add_service(format!("svc{c}"));
        for &e in &server_entries {
            app.add_alternative(svc, e, None);
        }
        app.add_request(e_a, RequestTarget::Service(svc), 1.0, None);
    }
    app.validate().expect("generated app model must validate");

    let mama = synthesize(
        &app,
        &SynthOptions {
            mgmt_fail_prob: p.mgmt_fail,
            domains: p.domains,
            hierarchical: p.hierarchical,
        },
    );
    mama.validate(&app)
        .expect("synthesised plane must validate");
    (app, mama)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ladder's whole contract in one property: no budget — however
    /// hostile — panics or comes back empty-handed, and the exact scan
    /// rung is bit-identical to the unguarded engine.
    #[test]
    fn any_budget_yields_a_result(p in params(), budget in budgets(), seed in 0u64..1 << 48) {
        let (app, mama) = build(&p);
        let graph = FaultGraph::build(&app).unwrap();
        let space = ComponentSpace::build(&app, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

        let threads = 1 + (seed % 3) as usize;
        let report = analysis.analyze_guarded(&GuardedOptions {
            budget,
            samples: 4_000,
            seed,
            threads,
            ..GuardedOptions::default()
        });

        prop_assert!(
            (report.distribution.total_probability() - 1.0).abs() < 1e-9,
            "engine {:?} does not normalise",
            report.engine
        );
        prop_assert_eq!(
            report.estimate.is_some(),
            !report.engine.is_exact(),
            "a CI comes back exactly when sampling ran"
        );
        match report.engine {
            // The scan rung shares the unguarded dispatch — bit-identical
            // to the unguarded twin with the same thread split.
            EngineKind::Exact => {
                let twin = if threads > 1 {
                    analysis.enumerate_parallel(threads)
                } else {
                    analysis.enumerate()
                };
                prop_assert_eq!(&report.distribution, &twin);
            }
            // The MTBDD multiplies factors in diagram order.
            EngineKind::Mtbdd => {
                prop_assert!(report.distribution.max_abs_diff(&analysis.enumerate()) < 1e-9);
            }
            EngineKind::MonteCarlo | EngineKind::Importance => {
                let est = report.estimate.as_ref().unwrap();
                prop_assert!(est.batches >= 2, "CI needs at least two batches");
                prop_assert!(est.failed_half_width.is_finite());
                prop_assert_eq!(est.seed, seed);
                // The sampling rung's auto-selection is part of the
                // contract: importance sampling fires exactly when a
                // rare-event component exists, and its diagnostics ride
                // along in the estimate.
                prop_assert_eq!(
                    report.engine == EngineKind::Importance,
                    analysis.has_rare_event_components()
                );
                prop_assert_eq!(
                    est.is.is_some(),
                    report.engine == EngineKind::Importance
                );
            }
        }
        // Every rung that was given up on is accounted for.
        for d in &report.descents {
            prop_assert!(d.engine != report.engine, "descended past the engine that answered");
        }
    }

    /// An already-expired deadline falls all the way to Monte Carlo —
    /// and still reports a finite confidence interval over ≥2 batches.
    #[test]
    fn expired_deadline_lands_on_monte_carlo(p in params(), seed in 0u64..1 << 48) {
        let (app, mama) = build(&p);
        let graph = FaultGraph::build(&app).unwrap();
        let space = ComponentSpace::build(&app, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

        let report = analysis.analyze_guarded(&GuardedOptions {
            budget: AnalysisBudget {
                deadline: Some(Duration::ZERO),
                ..AnalysisBudget::default()
            },
            samples: 4_000,
            seed,
            threads: 1,
            ..GuardedOptions::default()
        });
        prop_assert!(
            !report.engine.is_exact(),
            "expired deadline must land on a sampling rung, got {:?}",
            report.engine
        );
        prop_assert_eq!(report.descents.len(), 2, "both exact rungs must decline");
        let est = report.estimate.expect("sampling reports an estimate");
        prop_assert!(est.batches >= 2);
        prop_assert!((report.distribution.total_probability() - 1.0).abs() < 1e-9);
    }
}

/// Deterministic spot-check mirroring the CLI's `--budget-states 16`
/// acceptance path: a 16-state cap on a 2^14-state model rules out every
/// exact rung, and the Monte Carlo answer still lands near the truth.
#[test]
fn tiny_state_cap_degrades_to_sampling() {
    let sys = fmperf::ftlqn::examples::das_woodside_system();
    let mama = fmperf::mama::arch::centralized(&sys, 0.1);
    let graph = sys.fault_graph().unwrap();
    let space = ComponentSpace::build(&sys.model, &mama);
    let table = KnowTable::build(&graph, &mama, &space);
    let analysis = Analysis::new(&graph, &space).with_knowledge(&table);

    let report = analysis.analyze_guarded(&GuardedOptions {
        budget: AnalysisBudget {
            max_states: 16,
            ..AnalysisBudget::default()
        },
        samples: 60_000,
        seed: 7,
        threads: 1,
        ..GuardedOptions::default()
    });
    assert_eq!(report.engine, EngineKind::MonteCarlo);
    assert_eq!(report.descents.len(), 2);
    let exact = analysis.enumerate().failed_probability();
    let est = report.estimate.expect("sampling reports an estimate");
    assert!(
        (est.failed_mean - exact).abs() < 5.0 * est.failed_half_width.max(1e-3),
        "estimate {} too far from exact {}",
        est.failed_mean,
        exact
    );
}
