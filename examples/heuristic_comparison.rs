//! Compare all seven heuristics of the paper on the same grid, both by the
//! model-predicted makespan and by simulated execution — a one-instance preview
//! of Figures 5 and 6.
//!
//! ```text
//! cargo run --release --example heuristic_comparison
//! ```

use gridcast::prelude::*;

fn main() {
    let grid = grid5000_table3();
    let root = ClusterId(0);

    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "message", "heuristic", "predicted", "simulated"
    );
    for mib in [1u64, 2, 4] {
        let message = MessageSize::from_mib(mib);
        let simulator = Simulator::new(&grid, message);
        let problem = BroadcastProblem::from_grid(&grid, root, message);
        for kind in [
            HeuristicKind::FlatTree,
            HeuristicKind::Fef,
            HeuristicKind::Ecef,
            HeuristicKind::EcefLa,
            HeuristicKind::EcefLaMin,
            HeuristicKind::EcefLaMax,
            HeuristicKind::BottomUp,
        ] {
            let schedule = kind.schedule(&problem);
            let predicted = schedule.makespan();
            let simulated = simulator.execute_schedule(&schedule).completion;
            println!(
                "{:<12} {:>14} {:>13.3}s {:>13.3}s",
                format!("{mib} MiB"),
                kind.name(),
                predicted.as_secs(),
                simulated.as_secs()
            );
        }
        // The grid-unaware MPI default, for reference.
        let lam = simulator.run_default_mpi(root).completion;
        println!(
            "{:<12} {:>14} {:>14} {:>13.3}s",
            format!("{mib} MiB"),
            "Default MPI",
            "-",
            lam.as_secs()
        );
        println!();
    }
}
