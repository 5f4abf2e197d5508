//! The parallel Monte-Carlo runner behind Figures 1–4.
//!
//! Each iteration draws a fresh random grid from the Table 2 distributions,
//! builds the broadcast problem for a 1 MB message, schedules it with every
//! heuristic under study and records the makespans. Aggregated over the
//! iterations this yields the mean completion times (Figures 1–3) and the hit
//! rates against the per-iteration global minimum (Figure 4).
//!
//! Iterations are independent, so the runner hands them to
//! [`gridcast_core::pool::run_ordered`], one worker per available core. Every
//! worker owns one [`ScheduleEngine`] whose buffers are reused across all the
//! iterations it claims, and each iteration returns one row of makespans.
//! Because iteration `i` derives its RNG from `seed + i`, the pool returns the
//! rows in iteration order and the aggregation walks them sequentially, the
//! outcome is **bit-identical regardless of the thread count**
//! (floating-point summation order never changes).

use crate::params::ExperimentConfig;
use gridcast_core::pool::run_ordered;
use gridcast_core::{BroadcastProblem, HeuristicKind, ScheduleEngine};
use gridcast_plogp::Time;
use gridcast_topology::{ClusterId, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Aggregated results of a Monte-Carlo sweep for one cluster count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOutcome {
    /// Number of clusters of every generated grid.
    pub num_clusters: usize,
    /// Number of iterations aggregated.
    pub iterations: usize,
    /// Heuristics evaluated, in input order.
    pub heuristics: Vec<HeuristicKind>,
    /// Mean makespan per heuristic (same order as `heuristics`).
    pub mean_makespan: Vec<Time>,
    /// Number of iterations in which each heuristic matched the global minimum
    /// (the best makespan among all evaluated heuristics for that iteration).
    pub hits: Vec<usize>,
    /// Mean of the per-iteration global minimum — a lower envelope of the curves.
    pub mean_global_minimum: Time,
}

impl MonteCarloOutcome {
    /// Mean makespan of one heuristic.
    pub fn mean_of(&self, kind: HeuristicKind) -> Option<Time> {
        self.heuristics
            .iter()
            .position(|&k| k == kind)
            .map(|i| self.mean_makespan[i])
    }

    /// Hit count of one heuristic.
    pub fn hits_of(&self, kind: HeuristicKind) -> Option<usize> {
        self.heuristics
            .iter()
            .position(|&k| k == kind)
            .map(|i| self.hits[i])
    }

    /// Hit rate (fraction of iterations) of one heuristic.
    pub fn hit_rate_of(&self, kind: HeuristicKind) -> Option<f64> {
        self.hits_of(kind)
            .map(|h| h as f64 / self.iterations as f64)
    }
}

/// Relative tolerance under which two makespans count as "equal" for the hit
/// rate: different heuristics frequently construct the exact same schedule, and
/// floating-point noise must not break the tie.
const HIT_RELATIVE_TOLERANCE: f64 = 1e-9;

/// Runs the Monte-Carlo sweep for one cluster count.
pub fn run_monte_carlo(
    num_clusters: usize,
    kinds: &[HeuristicKind],
    config: &ExperimentConfig,
) -> MonteCarloOutcome {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_with_workers(num_clusters, kinds, config, workers)
}

/// [`run_monte_carlo`] on `workers` worker engines.
fn run_with_workers(
    num_clusters: usize,
    kinds: &[HeuristicKind],
    config: &ExperimentConfig,
    workers: usize,
) -> MonteCarloOutcome {
    assert!(num_clusters >= 2, "a broadcast needs at least two clusters");
    assert!(
        !kinds.is_empty(),
        "at least one heuristic must be evaluated"
    );

    let iterations = config.iterations;
    let k = kinds.len();
    let generator =
        GridGenerator::with_ranges(config.ranges.clone()).cluster_size(config.cluster_size);
    let mut engines: Vec<ScheduleEngine> = (0..workers.min(iterations))
        .map(|_| ScheduleEngine::new())
        .collect();
    // One row of `k` makespans per iteration, in iteration order.
    let rows = run_ordered(&mut engines, iterations, |engine, iteration| {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(iteration as u64));
        let grid = generator.generate(num_clusters, &mut rng);
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), config.message);
        let mut row = Vec::with_capacity(k);
        engine.makespans_into(&problem, kinds, &mut row);
        row
    });

    // Sequential aggregation in iteration order: the summation order — and
    // therefore the floating-point result — is independent of `workers`.
    let mut sum_makespan = vec![0.0f64; k];
    let mut hits = vec![0usize; k];
    let mut sum_global_min = 0.0f64;
    for row in &rows {
        let global_min = row
            .iter()
            .map(|span| span.as_secs())
            .fold(f64::INFINITY, f64::min);
        for (i, span) in row.iter().enumerate() {
            let span = span.as_secs();
            sum_makespan[i] += span;
            if span <= global_min * (1.0 + HIT_RELATIVE_TOLERANCE) {
                hits[i] += 1;
            }
        }
        sum_global_min += global_min;
    }

    let divisor = iterations.max(1) as f64;
    MonteCarloOutcome {
        num_clusters,
        iterations,
        heuristics: kinds.to_vec(),
        mean_makespan: sum_makespan
            .iter()
            .map(|&s| Time::from_secs(s / divisor))
            .collect(),
        hits,
        mean_global_minimum: Time::from_secs(sum_global_min / divisor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick().with_iterations(150)
    }

    #[test]
    fn outcome_is_deterministic_for_a_given_seed() {
        let kinds = HeuristicKind::all();
        let a = run_monte_carlo(5, &kinds, &quick());
        let b = run_monte_carlo(5, &kinds, &quick());
        assert_eq!(a, b);
        let different_seed = ExperimentConfig { seed: 1, ..quick() };
        let c = run_monte_carlo(5, &kinds, &different_seed);
        assert_ne!(a.mean_makespan, c.mean_makespan);
    }

    #[test]
    fn outcome_is_bit_identical_across_worker_counts() {
        // The public entry point takes one worker per core; any worker count
        // must reproduce the exact outcome a single worker produces.
        let kinds = HeuristicKind::all();
        let config = quick().with_iterations(24);
        let bits = |o: &MonteCarloOutcome| {
            let mut bits: Vec<u64> = o
                .mean_makespan
                .iter()
                .map(|t| t.as_secs().to_bits())
                .collect();
            bits.push(o.mean_global_minimum.as_secs().to_bits());
            (bits, o.hits.clone())
        };
        let single = run_with_workers(5, &kinds, &config, 1);
        for workers in [2usize, 3, 5, 8] {
            let outcome = run_with_workers(5, &kinds, &config, workers);
            assert_eq!(
                bits(&outcome),
                bits(&single),
                "{workers} workers changed the results"
            );
        }
    }

    #[test]
    fn every_iteration_contributes() {
        let kinds = [HeuristicKind::Ecef, HeuristicKind::FlatTree];
        let outcome = run_monte_carlo(4, &kinds, &quick());
        assert_eq!(outcome.iterations, 150);
        assert_eq!(outcome.heuristics.len(), 2);
        // Every iteration has at least one hit (the minimum itself), so the hit
        // counts sum to at least the iteration count.
        assert!(outcome.hits.iter().sum::<usize>() >= outcome.iterations);
    }

    #[test]
    fn flat_tree_is_worst_and_global_minimum_is_a_lower_envelope() {
        let kinds = HeuristicKind::all();
        let outcome = run_monte_carlo(8, &kinds, &quick());
        let flat = outcome.mean_of(HeuristicKind::FlatTree).unwrap();
        for kind in HeuristicKind::ecef_family() {
            let mean = outcome.mean_of(kind).unwrap();
            assert!(mean < flat, "{kind} mean {mean} vs flat {flat}");
            assert!(mean >= outcome.mean_global_minimum);
        }
        // Hit rates are within [0, 1].
        for kind in kinds {
            let rate = outcome.hit_rate_of(kind).unwrap();
            assert!((0.0..=1.0).contains(&rate), "{kind}: {rate}");
        }
        assert!(outcome.mean_of(HeuristicKind::BottomUp).is_some());
        assert!(outcome
            .mean_of(HeuristicKind::Fef)
            .unwrap()
            .as_secs()
            .is_finite());
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn single_cluster_sweep_is_rejected() {
        let _ = run_monte_carlo(1, &HeuristicKind::all(), &quick());
    }
}
