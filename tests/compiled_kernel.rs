//! Differential properties of the compiled bitmask kernel: on randomly
//! generated applications wrapped in synthesised management planes, the
//! kernel must agree with the naive reference enumerator *exactly* (the
//! distributions compare with `==`, not a tolerance), and every compiled
//! `know` predicate must answer like the interpreted [`KnowTable`]
//! oracle in every reachable state.

use fmperf::core::Analysis;
use fmperf::ftlqn::{FaultGraph, FtlqnModel, KnowPolicy, RequestTarget};
use fmperf::lqn::Multiplicity;
use fmperf::mama::{synthesize, ComponentSpace, KnowTable, SynthOptions};
use proptest::prelude::*;

/// Parameters drawn by proptest; the scenario is built deterministically
/// from them.
#[derive(Debug, Clone)]
struct Params {
    chains: usize,
    servers: usize,
    /// Priority order of server indices per chain (prefix used).
    prefs: Vec<Vec<usize>>,
    fail_app: Vec<f64>,
    mgmt_fail: f64,
    domains: usize,
    hierarchical: bool,
}

fn params() -> impl Strategy<Value = Params> {
    (
        1usize..=2,
        1usize..=2,
        proptest::collection::vec(proptest::collection::vec(0usize..2, 2), 2),
        proptest::collection::vec(0.0f64..0.4, 6),
        0.0f64..0.4,
        1usize..=3,
        any::<bool>(),
    )
        .prop_map(
            |(chains, servers, prefs, fail_app, mgmt_fail, domains, hierarchical)| Params {
                chains,
                servers,
                prefs,
                fail_app,
                mgmt_fail,
                domains,
                hierarchical,
            },
        )
}

/// A layered application: user chains calling a priority service over a
/// shared server pool (the same shape as `tests/properties.rs`, app side
/// only — management comes from [`synthesize`]).
fn build_app(p: &Params) -> FtlqnModel {
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
        let mut used = Vec::new();
        for &sx in &p.prefs[c] {
            let sx = sx % p.servers;
            if !used.contains(&sx) {
                used.push(sx);
                app.add_alternative(svc, server_entries[sx], None);
            }
        }
        if used.is_empty() {
            app.add_alternative(svc, server_entries[0], None);
        }
        app.add_request(e_a, RequestTarget::Service(svc), 1.0, None);
    }
    app.validate().expect("generated app model must validate");
    app
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The compiled kernel's distribution equals the naive reference
    /// enumerator's, bit for bit, under every policy and knowledge
    /// default, on every synthesised management plane.
    #[test]
    fn compiled_distribution_equals_naive(p in params()) {
        let app = build_app(&p);
        let mama = synthesize(&app, &SynthOptions {
            mgmt_fail_prob: p.mgmt_fail,
            domains: p.domains,
            hierarchical: p.hierarchical,
        });
        mama.validate(&app).expect("synthesised plane must validate");
        let graph = FaultGraph::build(&app).unwrap();
        let space = ComponentSpace::build(&app, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        for policy in [KnowPolicy::AnyFailedComponent, KnowPolicy::AllFailedComponents] {
            for unmonitored in [false, true] {
                let analysis = Analysis::new(&graph, &space)
                    .with_knowledge(&table)
                    .with_policy(policy)
                    .with_unmonitored_known(unmonitored);
                let kernel = analysis.compile().expect("small models always compile");
                prop_assert_eq!(
                    kernel.enumerate(),
                    analysis.enumerate_naive(),
                    "{:?}/unmonitored={}", policy, unmonitored
                );
            }
        }
    }

    /// The lane-parallel scan reproduces the scalar kernel bit for bit,
    /// on every synthesised management plane.  The synthesised planes
    /// cover state spaces both smaller than a lane block and with
    /// odd/even remainders modulo the lane width, so the single-state
    /// fallback path is exercised alongside the aligned block path.
    #[test]
    fn lane_scan_equals_scalar_scan(p in params()) {
        let app = build_app(&p);
        let mama = synthesize(&app, &SynthOptions {
            mgmt_fail_prob: p.mgmt_fail,
            domains: p.domains,
            hierarchical: p.hierarchical,
        });
        mama.validate(&app).expect("synthesised plane must validate");
        let graph = FaultGraph::build(&app).unwrap();
        let space = ComponentSpace::build(&app, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        for policy in [KnowPolicy::AnyFailedComponent, KnowPolicy::AllFailedComponents] {
            for unmonitored in [false, true] {
                let analysis = Analysis::new(&graph, &space)
                    .with_knowledge(&table)
                    .with_policy(policy)
                    .with_unmonitored_known(unmonitored);
                let kernel = analysis.compile().expect("small models always compile");
                prop_assert_eq!(
                    kernel.enumerate(),
                    kernel.enumerate_scalar(),
                    "{:?}/unmonitored={}", policy, unmonitored
                );
            }
        }
    }

    /// Every compiled `know` bitmask answers exactly like the
    /// interpreted oracle, state by state, under both unmonitored
    /// defaults.
    #[test]
    fn compiled_know_matches_oracle_state_by_state(p in params()) {
        let app = build_app(&p);
        let mama = synthesize(&app, &SynthOptions {
            mgmt_fail_prob: p.mgmt_fail,
            domains: p.domains,
            hierarchical: p.hierarchical,
        });
        let graph = FaultGraph::build(&app).unwrap();
        let space = ComponentSpace::build(&app, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let compiled = table.compile(&space).expect("small tables always compile");
        let fallible = space.fallible_indices();
        let n_states: u64 = 1 << fallible.len();
        // Full sweep when feasible, an even stride otherwise.
        let stride = (n_states / 4096).max(1);
        let mut state = space.all_up();
        let mut word = 0;
        while word < n_states {
            for (b, &ix) in fallible.iter().enumerate() {
                state[ix] = word & (1 << b) != 0;
            }
            for default in [false, true] {
                let oracle = table.oracle(&state).default_for_missing(default);
                let answers = compiled.answers(word, default);
                for (j, (c, t, know)) in compiled.pairs().enumerate() {
                    let fast = if know.is_never() { default } else { know.eval(word) };
                    prop_assert_eq!(
                        fast,
                        fmperf::ftlqn::KnowledgeOracle::knows(&oracle, c, t),
                        "pair ({:?}, {:?}) at word {:#b}, default {}",
                        c, t, word, default
                    );
                    prop_assert_eq!(answers & (1 << j) != 0, fast);
                }
            }
            word += stride;
        }
    }
}
