//! Times one large scheduling point: the full 7-heuristic batch at a size
//! far beyond the paper's figures, demonstrating the engine's n² wall is
//! gone in practice (a naive cubic round loop would need hours here).
//!
//! ```text
//! cargo run --release --example frontier_point [clusters]
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "a manual timing demonstration: it prints the wall-clock time of one large batch"
)]

use gridcast::core::{HeuristicKind, ScheduleEngine};
use gridcast::prelude::*;
use gridcast::topology::GridGenerator;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    use rand::SeedableRng;
    let start = Instant::now();
    let grid = GridGenerator::table2().generate(n, &mut ChaCha8Rng::seed_from_u64(0));
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
    println!("generate: {:.2} s", start.elapsed().as_secs_f64());

    let mut engine = ScheduleEngine::new();
    let mut out = Vec::new();
    let start = Instant::now();
    engine.schedule_all_into(&problem, &HeuristicKind::all(), &mut out);
    let batch = start.elapsed().as_secs_f64();
    for s in &out {
        println!("{:>10}: makespan {}", s.heuristic, s.makespan());
    }
    println!("n={n} 7-heuristic batch: {batch:.2} s");
}
