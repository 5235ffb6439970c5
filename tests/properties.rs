//! Property-based tests over randomly generated FTLQN application models
//! and MAMA management architectures.
//!
//! The generator builds layered systems with one or two user chains,
//! department applications, and a pool of data servers reachable through
//! priority services; management is a random one-manager architecture
//! with per-node agents.  The properties assert the global invariants of
//! the analysis engines rather than specific numbers.

use fmperf::core::{Analysis, MonteCarloOptions};
use fmperf::ftlqn::{
    Component, FaultGraph, FtlqnModel, KnowPolicy, PerfectKnowledge, RequestTarget,
};
use fmperf::lqn::Multiplicity;
use fmperf::mama::model::ConnectorKind;
use fmperf::mama::{ComponentSpace, KnowTable, MamaModel};
use proptest::prelude::*;

/// Everything needed to analyse one random scenario.
#[derive(Debug)]
struct Scenario {
    app: FtlqnModel,
    mama: MamaModel,
}

/// Parameters drawn by proptest; the scenario is built deterministically
/// from them.
#[derive(Debug, Clone)]
struct Params {
    chains: usize,
    servers: usize,
    /// Priority order of server indices per chain (prefix used).
    prefs: Vec<Vec<usize>>,
    alts_per_chain: Vec<usize>,
    fail_app: Vec<f64>,
    fail_mgmt: f64,
    agent_on_servers: bool,
    monitor_procs: bool,
}

fn params() -> impl Strategy<Value = Params> {
    (
        1usize..=2,
        1usize..=2,
        proptest::collection::vec(proptest::collection::vec(0usize..2, 2), 2),
        proptest::collection::vec(1usize..=2, 2),
        proptest::collection::vec(0.0f64..0.4, 8),
        0.0f64..0.4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                chains,
                servers,
                prefs,
                alts,
                fail_app,
                fail_mgmt,
                agent_on_servers,
                monitor_procs,
            )| {
                Params {
                    chains,
                    servers,
                    prefs,
                    alts_per_chain: alts,
                    fail_app,
                    fail_mgmt,
                    agent_on_servers,
                    monitor_procs,
                }
            },
        )
}

fn build(p: &Params) -> Scenario {
    let mut app = FtlqnModel::new();
    let pc = app.add_processor("user-pc", 0.0, Multiplicity::Infinite);

    // Server pool.
    let mut server_tasks = Vec::new();
    let mut server_entries = Vec::new();
    let mut server_procs = Vec::new();
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
        server_tasks.push(task);
        server_procs.push(proc);
    }

    // Chains: users -> app task -> service over a preference prefix.
    let mut app_tasks = Vec::new();
    let mut app_procs = Vec::new();
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
        let n_alts = p.alts_per_chain[c].min(p.servers);
        let mut used = Vec::new();
        for &sx in &p.prefs[c] {
            let sx = sx % p.servers;
            if !used.contains(&sx) {
                used.push(sx);
                app.add_alternative(svc, server_entries[sx], None);
            }
            if used.len() == n_alts {
                break;
            }
        }
        if used.is_empty() {
            app.add_alternative(svc, server_entries[0], None);
        }
        app.add_request(e_a, RequestTarget::Service(svc), 1.0, None);
        app_tasks.push(task);
        app_procs.push(proc);
    }
    app.validate().expect("generated app model must validate");

    // Management: one manager, agents on app nodes (+ optionally server
    // nodes), processor pings optional.
    let mut mama = MamaModel::new();
    let m_proc_mgr = mama.add_mgmt_processor("mgr-node", p.fail_mgmt);
    let mgr = mama.add_manager("mgr", m_proc_mgr, p.fail_mgmt);
    let mut m_server_procs = Vec::new();
    for s in 0..p.servers {
        let mp = mama.add_app_processor(format!("sp{s}"), server_procs[s]);
        let mt = mama.add_app_task(format!("srv{s}"), server_tasks[s], mp);
        if p.agent_on_servers {
            let ag = mama.add_agent(format!("sag{s}"), mp, p.fail_mgmt);
            mama.watch(format!("hb-s{s}"), ConnectorKind::AliveWatch, mt, ag);
            mama.watch(format!("st-s{s}"), ConnectorKind::StatusWatch, ag, mgr);
        } else {
            mama.watch(format!("hb-s{s}"), ConnectorKind::AliveWatch, mt, mgr);
        }
        if p.monitor_procs {
            mama.watch(format!("ping-s{s}"), ConnectorKind::AliveWatch, mp, mgr);
        }
        m_server_procs.push(mp);
    }
    for c in 0..p.chains {
        let mp = mama.add_app_processor(format!("ap{c}"), app_procs[c]);
        let mt = mama.add_app_task(format!("app{c}"), app_tasks[c], mp);
        let ag = mama.add_agent(format!("aag{c}"), mp, p.fail_mgmt);
        mama.watch(format!("hb-a{c}"), ConnectorKind::AliveWatch, mt, ag);
        mama.watch(format!("st-a{c}"), ConnectorKind::StatusWatch, ag, mgr);
        mama.notify(format!("cmd-m{c}"), mgr, ag);
        mama.notify(format!("cmd-a{c}"), ag, mt);
        if p.monitor_procs {
            mama.watch(format!("ping-a{c}"), ConnectorKind::AliveWatch, mp, mgr);
        }
    }
    mama.validate(&app)
        .expect("generated MAMA model must validate");
    Scenario { app, mama }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MTBDD engine is exact: it must agree with brute-force
    /// enumeration on every random scenario, under both know policies.
    #[test]
    fn mtbdd_equals_enumeration(p in params()) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let space = ComponentSpace::build(&s.app, &s.mama);
        let table = KnowTable::build(&graph, &s.mama, &space);
        for policy in [KnowPolicy::AnyFailedComponent, KnowPolicy::AllFailedComponents] {
            for unmonitored in [false, true] {
                let analysis = Analysis::new(&graph, &space)
                    .with_knowledge(&table)
                    .with_policy(policy)
                    .with_unmonitored_known(unmonitored);
                let exact = analysis.enumerate();
                let mtbdd = analysis.compile_mtbdd().distribution();
                prop_assert!((exact.total_probability() - 1.0).abs() < 1e-9);
                prop_assert!(
                    exact.max_abs_diff(&mtbdd) < 1e-9,
                    "diff {} under {policy:?}/unmonitored={unmonitored}",
                    exact.max_abs_diff(&mtbdd)
                );
            }
        }
    }

    /// Parallel enumeration is bit-stable against the sequential scan.
    #[test]
    fn parallel_equals_sequential(p in params()) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let space = ComponentSpace::build(&s.app, &s.mama);
        let table = KnowTable::build(&graph, &s.mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let seq = analysis.enumerate();
        let par = analysis.enumerate_parallel(3);
        prop_assert!(seq.max_abs_diff(&par) < 1e-12);
    }

    /// With perfect knowledge, the gated evaluator agrees with the plain
    /// Definition-1 AND-OR semantics about system survival, state by
    /// state.
    #[test]
    fn perfect_knowledge_matches_andor_root(p in params(), mask in 0u32..65536) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let n = s.app.component_count();
        let state: Vec<bool> = (0..n).map(|i| mask & (1 << (i % 16)) != 0).collect();
        let cfg = graph.configuration(&state, &PerfectKnowledge, KnowPolicy::AnyFailedComponent);
        prop_assert_eq!(!cfg.is_failed(), graph.root_working_plain(&state));
    }

    /// Knowledge limits can only hurt: the MAMA failure probability is at
    /// least the perfect-knowledge one, and the lax policy is at least as
    /// good as the strict one.
    #[test]
    fn coverage_orderings(p in params()) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let space = ComponentSpace::build(&s.app, &s.mama);
        let table = KnowTable::build(&graph, &s.mama, &space);
        let perfect = Analysis::new(&graph, &space).enumerate();
        let strict = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_policy(KnowPolicy::AllFailedComponents)
            .enumerate();
        let lax = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_policy(KnowPolicy::AnyFailedComponent)
            .enumerate();
        prop_assert!(strict.failed_probability() >= perfect.failed_probability() - 1e-12);
        prop_assert!(lax.failed_probability() >= perfect.failed_probability() - 1e-12);
        prop_assert!(lax.failed_probability() <= strict.failed_probability() + 1e-12);
    }

    /// Monte Carlo converges to the exact distribution.
    #[test]
    fn monte_carlo_converges(p in params()) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let space = ComponentSpace::build(&s.app, &s.mama);
        let table = KnowTable::build(&graph, &s.mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let exact = analysis.enumerate();
        let mc = analysis.monte_carlo(MonteCarloOptions { samples: 30_000, seed: 3 });
        prop_assert!(exact.max_abs_diff(&mc) < 0.02, "diff {}", exact.max_abs_diff(&mc));
    }

    /// Every fallible component flipped down alone either leaves the
    /// configuration unchanged or degrades it (fewer or equal running
    /// chains) — single failures never help availability.
    #[test]
    fn single_failures_never_add_chains(p in params()) {
        let s = build(&p);
        let graph = FaultGraph::build(&s.app).unwrap();
        let space = ComponentSpace::build(&s.app, &s.mama);
        let table = KnowTable::build(&graph, &s.mama, &space);
        let all_up = space.all_up();
        let oracle = table.oracle(&all_up);
        let base = graph.configuration(&all_up, &oracle, KnowPolicy::AnyFailedComponent);
        for ix in space.fallible_indices() {
            let mut state = space.all_up();
            state[ix] = false;
            let oracle = table.oracle(&state);
            let cfg = graph.configuration(&state, &oracle, KnowPolicy::AnyFailedComponent);
            prop_assert!(
                cfg.user_chains.len() <= base.user_chains.len(),
                "downing {} added user chains",
                space.name(ix)
            );
        }
    }
}

/// Deterministic regression: the generator's corner case with a single
/// server and strict policy stays solvable.
#[test]
fn generator_minimal_case_builds() {
    let p = Params {
        chains: 1,
        servers: 1,
        prefs: vec![vec![0, 0], vec![0, 0]],
        alts_per_chain: vec![1, 1],
        fail_app: vec![0.1; 8],
        fail_mgmt: 0.1,
        agent_on_servers: false,
        monitor_procs: false,
    };
    let s = build(&p);
    let graph = FaultGraph::build(&s.app).unwrap();
    let space = ComponentSpace::build(&s.app, &s.mama);
    let table = KnowTable::build(&graph, &s.mama, &space);
    let dist = Analysis::new(&graph, &space)
        .with_knowledge(&table)
        .enumerate();
    assert!((dist.total_probability() - 1.0).abs() < 1e-9);
}

/// The component space orders app components first; spot-check.
#[test]
fn component_space_layout_invariant() {
    let p = Params {
        chains: 2,
        servers: 2,
        prefs: vec![vec![0, 1], vec![1, 0]],
        alts_per_chain: vec![2, 2],
        fail_app: vec![0.2; 8],
        fail_mgmt: 0.2,
        agent_on_servers: true,
        monitor_procs: true,
    };
    let s = build(&p);
    let space = ComponentSpace::build(&s.app, &s.mama);
    assert_eq!(space.app_count(), s.app.component_count());
    for c in s.app.components() {
        let ix = s.app.component_index(c);
        assert!(ix < space.app_count());
        assert_eq!(space.name(ix), s.app.component_name(c));
        let _ = Component::Task; // silence unused import lint paths
    }
}
