//! Ad-hoc decomposition of where `schedule_all` time goes at large n.
//!
//! ```text
//! cargo run --release --example profile_engine [clusters]
//! ```
//!
//! Timings on shared machines are noisy; every number printed here is a
//! minimum over several repeats, which is the best estimator of true cost
//! under external interference. The engine counters printed next to each
//! heuristic are those of one run.

use gridcast::core::{EngineTelemetry, HeuristicKind, ScheduleEngine, DEFAULT_K_BEST};
use gridcast::prelude::*;
use gridcast::topology::GridGenerator;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    use rand::SeedableRng;
    let grid = GridGenerator::table2().generate(n, &mut ChaCha8Rng::seed_from_u64(0));
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));

    let mut engine = ScheduleEngine::new();
    // Warm up buffers before timing anything, and drop the warm-up's counters.
    let _ = engine.makespan(&problem, HeuristicKind::Ecef);
    engine.take_telemetry();

    for kind in HeuristicKind::all() {
        let mut best = f64::INFINITY;
        // Every run schedules the same problem, so each run's counters are
        // the same; the last run's are printed.
        let mut t = EngineTelemetry::default();
        for _ in 0..5 {
            let start = Instant::now();
            let _ = engine.makespan(&problem, kind);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            t = engine.take_telemetry();
        }
        println!("{:>10}: {best:>10.2} ms (min of 5)  {t:?}", kind.name());
    }

    println!("default K: {DEFAULT_K_BEST}");
    for k in [1usize, 2, 4, 6, 8, 12, 16] {
        let mut probe = ScheduleEngine::with_k_best(k);
        let mut out = Vec::new();
        let mut best = f64::INFINITY;
        for _ in 0..7 {
            let start = Instant::now();
            probe.schedule_all_into(&problem, &HeuristicKind::all(), &mut out);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        println!("K={k:<2} batch: {best:>10.2} ms (min of 7)");
    }
}
