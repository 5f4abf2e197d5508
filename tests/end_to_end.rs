//! Cross-crate integration tests: topology → scheduling → prediction →
//! simulated execution, on both random Table 2 grids and the GRID'5000 snapshot.

use gridcast::core::heuristics::Heuristic;
use gridcast::core::{optimal_schedule, BroadcastProblem, HeuristicKind, MixedStrategy};
use gridcast::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_grid(clusters: usize, seed: u64) -> Grid {
    GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn full_pipeline_on_random_grids() {
    for clusters in [2usize, 4, 8, 16] {
        let grid = random_grid(clusters, clusters as u64 * 7);
        let message = MessageSize::from_mib(1);
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
        let simulator = Simulator::new(&grid, message);
        for kind in HeuristicKind::all() {
            let schedule = kind.schedule(&problem);
            schedule
                .validate(&problem)
                .unwrap_or_else(|e| panic!("{kind} on {clusters} clusters: {e}"));
            assert!(schedule.makespan() >= problem.lower_bound());
            let outcome = simulator.execute_schedule(&schedule);
            assert!(outcome.completion.is_finite(), "{kind}");
            assert!(
                outcome.receive_times.iter().all(|t| t.is_finite()),
                "{kind} left machines unreached"
            );
        }
    }
}

#[test]
fn grid5000_pipeline_reproduces_the_paper_ordering() {
    let grid = grid5000_table3();
    let message = MessageSize::from_mib(4);
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
    let simulator = Simulator::new(&grid, message);

    let measure = |kind: HeuristicKind| {
        let schedule = kind.schedule(&problem);
        simulator.execute_schedule(&schedule).completion
    };

    let flat = measure(HeuristicKind::FlatTree);
    let ecef_family_worst = HeuristicKind::ecef_family()
        .into_iter()
        .map(measure)
        .max()
        .unwrap();
    let lam = simulator.run_default_mpi(ClusterId(0)).completion;

    // Paper, Figures 5/6: the ECEF family wins, the flat tree loses even against
    // the grid-unaware binomial.
    assert!(ecef_family_worst < lam);
    assert!(lam < flat);
}

#[test]
fn optimal_search_bounds_every_heuristic_end_to_end() {
    for seed in 0..5u64 {
        let grid = random_grid(5, 100 + seed);
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        let optimal = optimal_schedule(&problem).expect("5 clusters is within the search cap");
        for kind in HeuristicKind::all() {
            let heuristic = kind.schedule(&problem).makespan();
            assert!(
                optimal.makespan() <= heuristic + Time::from_micros(1.0),
                "seed {seed}: {kind} ({heuristic}) beat optimal ({})",
                optimal.makespan()
            );
        }
    }
}

#[test]
fn mixed_strategy_always_matches_one_component_end_to_end() {
    let strategy = MixedStrategy::default();
    for clusters in [4usize, 12, 30] {
        let grid = random_grid(clusters, 55 + clusters as u64);
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        let mixed = strategy.schedule(&problem).makespan();
        let selected = strategy.select(clusters).schedule(&problem).makespan();
        assert_eq!(mixed, selected);
    }
}

#[test]
fn rotating_the_root_keeps_schedules_valid_and_finite() {
    // The paper notes that the flat tree degrades when applications rotate the
    // broadcast root; whatever the root, our schedules must stay valid and the
    // grid-aware heuristics must stay ahead of the flat tree on average.
    let grid = grid5000_table3();
    let message = MessageSize::from_mib(1);
    let mut flat_total = Time::ZERO;
    let mut aware_total = Time::ZERO;
    for root in grid.cluster_ids() {
        let problem = BroadcastProblem::from_grid(&grid, root, message);
        for kind in HeuristicKind::all() {
            let schedule = kind.schedule(&problem);
            assert!(schedule.validate(&problem).is_ok(), "{kind} root {root}");
        }
        flat_total += HeuristicKind::FlatTree.schedule(&problem).makespan();
        aware_total += HeuristicKind::EcefLaMax.schedule(&problem).makespan();
    }
    assert!(aware_total < flat_total);
}

#[test]
fn facade_prelude_supports_the_documented_workflow() {
    // Mirrors the README quickstart; guards the public API surface.
    let grid = grid5000_table3();
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
    let schedule = HeuristicKind::EcefLaMax.schedule(&problem);
    assert!(schedule.makespan() > Time::ZERO);
    let simulator = Simulator::new(&grid, MessageSize::from_mib(1));
    let outcome: SimulationOutcome = simulator.execute_schedule(&schedule);
    assert!(outcome.completion >= schedule.makespan() * 0.5);
}
