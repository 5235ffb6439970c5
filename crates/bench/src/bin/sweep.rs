//! Extension experiment A3: how the expected reward degrades with the
//! quality of the management plane itself.
//!
//! Sweeps the failure probability of every management component (agents,
//! managers, their processors) from 0 to 0.3 for the four §6
//! architectures plus the agentless Figure 4 variant, at fixed
//! application failure probabilities (0.1).  At p_mgmt = 0 every
//! architecture coincides with perfect knowledge; the *slope* is the
//! architecture's sensitivity to its own infrastructure.

use fmperf_core::{expected_reward, solve_configurations, Analysis, RewardSpec};
use fmperf_ftlqn::examples::das_woodside_system;
use fmperf_mama::{arch, ComponentSpace, KnowTable, MamaModel};

fn main() {
    let sys = das_woodside_system();
    let graph = sys.fault_graph().expect("canonical model");
    let spec = RewardSpec::new()
        .weight(sys.user_a, 1.0)
        .weight(sys.user_b, 1.0);

    #[allow(clippy::type_complexity)]
    let variants: Vec<(
        &str,
        fn(&fmperf_ftlqn::examples::DasWoodsideSystem, f64) -> MamaModel,
    )> = vec![
        ("centralized", arch::centralized),
        ("agentless", arch::centralized_agentless),
        ("distributed", arch::distributed),
        ("hierarchical", arch::hierarchical),
        ("network", arch::network),
    ];

    print!("{:>8}", "p_mgmt");
    for (name, _) in &variants {
        print!(" {name:>13}");
    }
    println!();
    for step in 0..=6 {
        let p = 0.05 * f64::from(step);
        print!("{p:>8.2}");
        for (_, build) in &variants {
            let mama = build(&sys, p);
            let space = ComponentSpace::build(&sys.model, &mama);
            let table = KnowTable::build(&graph, &mama, &space);
            let dist = Analysis::new(&graph, &space)
                .with_knowledge(&table)
                .compile_mtbdd()
                .distribution();
            let perfs = solve_configurations(&sys.model, &dist.configurations()).expect("solves");
            let r = expected_reward(&dist, &perfs, &spec);
            print!(" {r:>13.3}");
        }
        println!();
    }
    println!();
    println!("At p_mgmt = 0 all variants match perfect knowledge; the slope is the");
    println!("architecture's exposure to its own infrastructure.  The agentless");
    println!("variant (paper Fig. 4) dominates the agent-based one: every agent hop");
    println!("multiplies another availability factor into each knowledge path.");
}
