//! Quickstart: schedule and execute a broadcast on the paper's GRID'5000 grid.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gridcast::prelude::*;

fn main() {
    // The 88-machine, 6-logical-cluster snapshot of the paper's Table 3.
    let grid = grid5000_table3();
    let message = MessageSize::from_mib(4);
    let root = ClusterId(0);

    println!(
        "Broadcasting {message} from {} over {} machines in {} clusters\n",
        grid.cluster(root).name,
        grid.num_nodes(),
        grid.num_clusters()
    );

    // 1. Build the problem instance the heuristics work on: inter-cluster
    //    latencies and gaps plus per-cluster internal broadcast times.
    let problem = BroadcastProblem::from_grid(&grid, root, message);

    // 2. Schedule it with the paper's grid-aware ECEF-LAT heuristic.
    let schedule = HeuristicKind::EcefLaMax.schedule(&problem);
    println!(
        "{} schedule ({} inter-cluster transfers):",
        schedule.heuristic,
        schedule.num_transfers()
    );
    for event in &schedule.events {
        println!(
            "  {} -> {}  start {}  arrival {}",
            grid.cluster(event.sender).name,
            grid.cluster(event.receiver).name,
            event.start,
            event.arrival
        );
    }
    println!("predicted makespan: {}\n", schedule.makespan());

    // 3. Execute the schedule on the discrete-event simulator and compare the
    //    measured completion with the prediction.
    let simulator = Simulator::new(&grid, message);
    let outcome = simulator.execute_schedule(&schedule);
    println!("simulated completion: {}", outcome.completion);
    println!("last machine to receive: {:?}", outcome.last_receiver());

    // 4. Compare against the naive flat tree — the strategy the paper's
    //    grid-aware heuristics were designed to replace.
    let flat = HeuristicKind::FlatTree.schedule(&problem);
    let flat_outcome = simulator.execute_schedule(&flat);
    println!(
        "\nflat tree would need {} ({:.1}x slower)",
        flat_outcome.completion,
        flat_outcome.completion / outcome.completion
    );
}
