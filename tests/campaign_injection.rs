//! Differential and property tests for the fault-injection campaign.
//!
//! A campaign answers the baseline and every scenario as one row of a
//! single MTBDD compiled with every injection point kept as a variable.
//! Here every row is recomputed from scratch by mutating the model by
//! hand — pinning the injected elements' failure probabilities to 1 and
//! re-running the plain exact enumeration — on the paper's four
//! management architectures plus the as-published distributed one
//! (under `unmonitored_known`), with both knowledge policies, at three
//! failure probabilities, for singles and pairs.  A row must agree within
//! 1e-9 in failure probability and reward (the bound the MTBDD engine's
//! own re-enumeration test uses) and exactly in the covered set.
//!
//! A release build (`cargo test --release`) checks all 10,650 scenario
//! rows of that matrix and its 30 baselines in under a minute.  An
//! unoptimised build, where one hand enumeration costs 10–170 ms, checks
//! every baseline, every single at p = 0.1 under the default policy, and
//! a third of the other singles and a 97th of the pairs of each
//! combination, at offsets that rotate with the combination.  Both
//! builds check every row's label order, engine and descents, and that
//! no injection improves on the baseline's availability.
//!
//! When the one compile is refused, the campaign falls back to the
//! per-scenario ladder, whose exact rung must still agree with the hand
//! mutation bit for bit.  The centralized architecture additionally gets
//! hand-computed coverage expectations: its single manager is a single
//! point of knowledge.

use fmperf::core::{
    run_campaign, solve_configurations, Analysis, AnalysisBudget, CampaignOptions, CampaignReport,
    EngineKind, GuardedOptions, RewardSpec, ScenarioAnalysis,
};
use fmperf::ftlqn::examples::{das_woodside_system, das_woodside_system_with, DasWoodsideParams};
use fmperf::ftlqn::{Configuration, FaultGraph, KnowPolicy};
use fmperf::mama::{
    arch, pairwise_scenarios, single_scenarios, ComponentSpace, KnowTable, MamaModel, Scenario,
};
use std::collections::{BTreeMap, BTreeSet};

/// Largest |Δfailed| and |Δreward| a campaign row may show against the
/// hand-mutated model's enumeration.
const TOLERANCE: f64 = 1e-9;

/// In an unoptimised build, the differential recomputes every
/// this-many-th single and pair (at an offset that rotates with the
/// combination), so the test stays within seconds, except that every
/// single at [`EVERY_SINGLE_AT`] under the default policy is recomputed;
/// an optimised build recomputes every row.
const DEBUG_STRIDES: (usize, usize) = (3, 97);

/// The failure probability at which even an unoptimised build recomputes
/// every single under the default policy.
const EVERY_SINGLE_AT: f64 = 0.1;

const POLICIES: [KnowPolicy; 2] = [
    KnowPolicy::AnyFailedComponent,
    KnowPolicy::AllFailedComponents,
];

/// The architectures under test at failure probability `p`: name, MAMA
/// model and the `unmonitored_known` flag it is analysed with.
fn architectures(
    sys: &fmperf::ftlqn::examples::DasWoodsideSystem,
    p: f64,
) -> Vec<(String, MamaModel, bool)> {
    let mut out: Vec<(String, MamaModel, bool)> = arch::ArchKind::ALL
        .into_iter()
        .map(|kind| (kind.name().to_string(), arch::build(kind, sys, p), false))
        .collect();
    out.push((
        "distributed-as-published".to_string(),
        arch::distributed_as_published(sys, p),
        true,
    ));
    out
}

/// One hand-mutated model's answer, computed without the campaign.
struct HandMutation {
    failed: f64,
    covered: BTreeSet<String>,
    reward: Option<f64>,
}

/// Recomputes one injected model with the plain unguarded exact engine:
/// its failure probability, the covered set of the campaign's coverage
/// probe, and (with `spec`) the expected reward, solving each distinct
/// configuration's LQN once into `lqn`.
fn recompute(
    graph: &FaultGraph<'_>,
    mama: &MamaModel,
    opts: &CampaignOptions,
    spec: Option<&RewardSpec>,
    lqn: &mut BTreeMap<Configuration, f64>,
) -> HandMutation {
    let space = ComponentSpace::build(graph.model(), mama);
    let table = KnowTable::build(graph, mama, &space);
    let analysis = Analysis::new(graph, &space)
        .with_knowledge(&table)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known);
    let dist = analysis.enumerate();

    let mut probe = space.all_up();
    for (ix, up) in probe.iter_mut().enumerate() {
        if space.up_prob(ix) == 0.0 {
            *up = false;
        }
    }
    let mut covered = BTreeSet::new();
    for (&(component, _decider), know) in table.iter() {
        if know.holds(&probe) {
            covered.insert(graph.model().component_name(component).to_string());
        }
    }

    let reward = spec.map(|spec| {
        let missing: Vec<Configuration> = dist
            .configurations()
            .into_iter()
            .filter(|c| !lqn.contains_key(c))
            .collect();
        let perfs = solve_configurations(graph.model(), &missing).expect("the LQN solves");
        for (config, perf) in missing.into_iter().zip(perfs) {
            lqn.insert(config, spec.reward(&perf));
        }
        dist.iter().map(|(c, p)| p * lqn[c]).sum()
    });
    HandMutation {
        failed: dist.failed_probability(),
        covered,
        reward,
    }
}

/// Every campaign row — singles and pairs, five architectures, both
/// policies, three failure probabilities — matches an independent
/// hand-mutation of the model within [`TOLERANCE`], with identical
/// covered sets, and is answered by the campaign's one diagram.
#[test]
fn campaign_matches_hand_mutated_models() {
    let (debug_single_stride, pair_stride) = if cfg!(debug_assertions) {
        DEBUG_STRIDES
    } else {
        (1, 1)
    };
    let mut combination = 0;
    for p in [0.05, EVERY_SINGLE_AT, 0.149] {
        let sys = das_woodside_system_with(DasWoodsideParams {
            fail_prob: p,
            ..DasWoodsideParams::default()
        });
        let graph = sys.fault_graph().unwrap();
        let spec = RewardSpec::new()
            .weight(sys.user_a, 1.0)
            .weight(sys.user_b, 1.0);
        let mut lqn = BTreeMap::new();
        for (name, mama, unmonitored_known) in architectures(&sys, p) {
            for policy in POLICIES {
                let opts = CampaignOptions {
                    pairwise: true,
                    policy,
                    unmonitored_known,
                    ..CampaignOptions::default()
                };
                let who = format!("{name} p={p} {policy:?}");
                combination += 1;
                let single_stride =
                    if p == EVERY_SINGLE_AT && policy == CampaignOptions::default().policy {
                        1
                    } else {
                        debug_single_stride
                    };
                let report = run_campaign(&graph, &mama, Some(&spec), &opts);
                assert_eq!(report.failures().count(), 0, "{who}: no scenario may fail");

                let mut scenarios = single_scenarios(&mama);
                let singles = scenarios.len();
                scenarios.extend(pairwise_scenarios(&mama));
                assert_eq!(
                    report.scenarios.len(),
                    scenarios.len(),
                    "{who}: the campaign covers every single and pair"
                );
                let mut check = |analysed: &ScenarioAnalysis, scenario: &Scenario| {
                    let hand =
                        recompute(&graph, &scenario.apply(&mama), &opts, Some(&spec), &mut lqn);
                    check_row(&who, analysed, &hand);
                };
                let baseline = Scenario {
                    injections: Vec::new(),
                };
                check(&report.baseline, &baseline);
                let base = report.baseline.failed_probability;
                for (i, (outcome, scenario)) in report.scenarios.iter().zip(&scenarios).enumerate()
                {
                    assert_eq!(outcome.label, scenario.label(&mama), "{who}: order");
                    let analysed = outcome.result.as_ref().expect("no failures");
                    // Injections only remove knowledge and availability.
                    assert!(
                        analysed.failed_probability >= base - 1e-12,
                        "{who}/{}: an injection cannot improve availability",
                        outcome.label
                    );
                    let stride = if i < singles {
                        single_stride
                    } else {
                        pair_stride
                    };
                    if (i + combination) % stride == 0 {
                        check(analysed, scenario);
                    } else {
                        assert_eq!(
                            analysed.engine,
                            EngineKind::Mtbdd,
                            "{who}/{}",
                            outcome.label
                        );
                        assert!(analysed.descents.is_empty(), "{who}/{}", outcome.label);
                    }
                }
            }
        }
    }
}

/// One campaign row against its hand mutation: answered by the
/// campaign's diagram, within [`TOLERANCE`] in failure probability and
/// reward, with the identical covered set.
fn check_row(who: &str, analysed: &ScenarioAnalysis, hand: &HandMutation) {
    let label = &analysed.label;
    assert_eq!(analysed.engine, EngineKind::Mtbdd, "{who}/{label}: engine");
    assert!(analysed.descents.is_empty(), "{who}/{label}: descents");
    assert!(
        (analysed.failed_probability - hand.failed).abs() <= TOLERANCE,
        "{who}/{label}: failed {} vs hand mutation {}",
        analysed.failed_probability,
        hand.failed
    );
    let (reward, hand_reward) = (analysed.reward.unwrap(), hand.reward.unwrap());
    assert!(
        (reward - hand_reward).abs() <= TOLERANCE,
        "{who}/{label}: reward {reward} vs hand mutation {hand_reward}"
    );
    assert_eq!(analysed.covered, hand.covered, "{who}/{label}: covered set");
    assert_eq!(
        analysed.coverage_loss(),
        analysed.newly_uncovered.len(),
        "{who}/{label}: coverage loss must count the newly uncovered"
    );
}

/// With the one compile refused (node cap 1), every scenario goes down
/// the per-scenario ladder, whose exact rung still matches the hand
/// mutation bit for bit.
#[test]
fn refused_compile_falls_back_to_the_bit_identical_ladder() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let mut lqn = BTreeMap::new();
    for (name, mama, unmonitored_known) in architectures(&sys, 0.1) {
        let opts = CampaignOptions {
            guarded: GuardedOptions {
                budget: AnalysisBudget {
                    max_mtbdd_nodes: 1,
                    ..AnalysisBudget::default()
                },
                ..GuardedOptions::default()
            },
            unmonitored_known,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&graph, &mama, None, &opts);
        assert_eq!(report.failures().count(), 0, "{name}: no scenario may fail");
        let hand = recompute(&graph, &mama, &opts, None, &mut lqn);
        assert_eq!(
            report.baseline.engine,
            EngineKind::Exact,
            "{name}: baseline"
        );
        assert_eq!(
            report.baseline.failed_probability, hand.failed,
            "{name}: baseline"
        );

        let scenarios = single_scenarios(&mama);
        assert_eq!(report.scenarios.len(), scenarios.len(), "{name}");
        for (outcome, scenario) in report.scenarios.iter().zip(&scenarios) {
            let analysed = outcome.result.as_ref().expect("no failures");
            let hand = recompute(&graph, &scenario.apply(&mama), &opts, None, &mut lqn);
            assert_eq!(
                analysed.engine,
                EngineKind::Exact,
                "{name}/{}",
                outcome.label
            );
            assert_eq!(
                analysed.failed_probability, hand.failed,
                "{name}/{}: failure probability differs from hand mutation",
                outcome.label
            );
            assert_eq!(analysed.covered, hand.covered, "{name}/{}", outcome.label);
        }
    }
}

/// Over a grid of failure probabilities, on the four architectures plus
/// the as-published distributed one (under `unmonitored_known`), singles
/// and pairs: a single never beats the baseline (exactly), a pair never
/// beats the worse of its two singles (up to summation order), and every
/// reported probability lies in `[0, 1]`.
#[test]
fn injections_never_improve_availability_over_a_grid_of_p() {
    for p in [0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.2, 0.3] {
        let sys = das_woodside_system_with(DasWoodsideParams {
            fail_prob: p,
            ..DasWoodsideParams::default()
        });
        let graph = sys.fault_graph().unwrap();
        for (name, mama, unmonitored_known) in architectures(&sys, p) {
            let opts = CampaignOptions {
                pairwise: true,
                unmonitored_known,
                ..CampaignOptions::default()
            };
            let report = run_campaign(&graph, &mama, None, &opts);
            check_floors(&report, &format!("{name} p={p}"));
        }
    }
}

/// The three rules of [`injections_never_improve_availability_over_a_grid_of_p`].
fn check_floors(report: &CampaignReport, who: &str) {
    assert_eq!(report.failures().count(), 0, "{who}: no scenario may fail");
    let base = report.baseline.failed_probability;
    assert!((0.0..=1.0).contains(&base), "{who}: baseline {base}");
    let mut singles: BTreeMap<&str, f64> = BTreeMap::new();
    for s in report.analysed() {
        let failed = s.failed_probability;
        assert!((0.0..=1.0).contains(&failed), "{who}/{}: {failed}", s.label);
        match s.label.split_once(" + ") {
            None => {
                assert!(
                    failed >= base,
                    "{who}/{}: {failed} below the baseline {base}",
                    s.label
                );
                singles.insert(&s.label, failed);
            }
            Some((a, b)) => {
                let floor = singles[a].max(singles[b]) * (1.0 - 1e-9);
                assert!(
                    failed >= floor,
                    "{who}/{}: {failed} below its singles' {floor}",
                    s.label
                );
            }
        }
    }
}

/// Hand-computed coverage expectations for the centralized architecture:
/// the single manager `m1` (and the processor `proc5` it runs on) is a
/// single point of knowledge, while killing one agent only blinds the
/// manager to what that agent watched.
#[test]
fn centralized_injections_match_hand_computed_coverage() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().unwrap();
    let mama = arch::centralized(&sys, 0.1);
    let report = run_campaign(&graph, &mama, None, &CampaignOptions::default());

    let baseline = &report.baseline;
    assert!(
        !baseline.covered.is_empty(),
        "centralized baseline must cover something"
    );

    let by_label = |label: &str| {
        report
            .scenarios
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("scenario {label} missing"))
            .result
            .as_ref()
            .expect("scenario analyses cleanly")
    };

    // Killing the only manager loses every covered component.
    let kill_mgr = by_label("kill-manager(m1)");
    assert!(kill_mgr.covered.is_empty(), "no knowledge without m1");
    assert_eq!(
        kill_mgr.newly_uncovered,
        baseline.covered.iter().cloned().collect::<Vec<_>>(),
        "everything the baseline covered is newly uncovered"
    );
    assert_eq!(kill_mgr.coverage_loss(), baseline.covered.len());

    // Failing the management processor strands the manager: identical
    // knowledge outcome.
    let fail_proc = by_label("fail-processor(proc5)");
    assert_eq!(fail_proc.covered, kill_mgr.covered);
    assert_eq!(fail_proc.failed_probability, kill_mgr.failed_probability);

    // ag3 is the only sensing path for the Server1 task (proc3 keeps its
    // direct alive-watch from m1): killing it uncovers exactly Server1.
    let kill_ag3 = by_label("kill-agent(ag3)");
    assert_eq!(kill_ag3.newly_uncovered, vec!["Server1".to_string()]);
    assert_eq!(kill_ag3.coverage_loss(), 1);

    // ag1 only carries AppA's notification hop; the servers stay covered
    // through AppB's decider pairs, so no *component* loses coverage —
    // but availability still suffers.
    let kill_ag1 = by_label("kill-agent(ag1)");
    assert_eq!(kill_ag1.coverage_loss(), 0);
    assert!(kill_ag1.failed_probability > baseline.failed_probability + 1e-9);
}
