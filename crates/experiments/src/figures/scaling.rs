//! Grid-scale extension of the paper's sweeps: 50 → 1000 clusters.
//!
//! Figures 1–4 stop at 50 clusters — the paper's `O(n³)`-and-worse scheduling
//! loops made anything larger impractical. With the engine's k-best candidate
//! cache the schedule construction is `O(n² log n)`, so this sweep pushes the
//! same Monte-Carlo methodology to 1000-cluster grids and reports how the
//! heuristics' mean completion times degrade relative to each other at scale.
//!
//! It is the classic [`completion_sweep`] with one difference: iterations
//! are scaled down ([`iterations_for`]), because these grids are 20–400×
//! bigger than Figure 2's and heuristic *ranking* stabilises with far fewer
//! samples than the absolute means of the small grids. The Monte-Carlo
//! runner claims one iteration per worker at a time, so up to one
//! 1000-cluster instance per core is alive at once.

use crate::figures::completion_sweep;
use crate::params::ExperimentConfig;
use crate::report::FigureResult;
use gridcast_core::HeuristicKind;

/// Cluster counts swept by the scaling figure.
pub const CLUSTER_COUNTS: [usize; 5] = [50, 100, 200, 500, 1000];

/// How many Monte-Carlo iterations the sweep runs per cluster count, derived
/// from the configured iteration budget (2000 → 8).
pub fn iterations_for(config: &ExperimentConfig) -> usize {
    (config.iterations / 250).clamp(2, 64)
}

/// Runs the scaling sweep: all seven heuristics, 50–1000 clusters.
pub fn run(config: &ExperimentConfig) -> FigureResult {
    scaling_sweep(
        "Scaling sweep: 1 MB broadcast in grids of up to 1000 clusters",
        &CLUSTER_COUNTS,
        &HeuristicKind::all(),
        config,
    )
}

/// The sweep engine behind [`run`], reusable with reduced cluster counts for
/// smoke tests.
pub fn scaling_sweep(
    title: &str,
    cluster_counts: &[usize],
    kinds: &[HeuristicKind],
    config: &ExperimentConfig,
) -> FigureResult {
    let config = config.clone().with_iterations(iterations_for(config));
    let mut figure = completion_sweep(title, cluster_counts, kinds, &config);
    figure.y_label = "mean completion time (s)".to_string();
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_ranking_holds_at_larger_scales() {
        // A reduced sweep keeps the test fast while checking the shape: the
        // flat tree keeps degrading linearly while the grid-aware heuristics
        // stay orders of magnitude below it.
        let config = ExperimentConfig::quick().with_iterations(500);
        let fig = scaling_sweep("scaling-test", &[50, 150], &HeuristicKind::all(), &config);
        assert_eq!(fig.series.len(), 7);
        let flat = fig.series_by_label("Flat Tree").unwrap();
        let ecef_lat = fig.series_by_label("ECEF-LAT").unwrap();
        assert!(flat.y_at(150.0).unwrap() > 3.0 * flat.y_at(50.0).unwrap() * 0.8);
        assert!(ecef_lat.y_at(150.0).unwrap() < flat.y_at(150.0).unwrap() / 4.0);
        // Means are deterministic for a given seed.
        let again = scaling_sweep("scaling-test", &[50, 150], &HeuristicKind::all(), &config);
        assert_eq!(fig, again);
    }

    #[test]
    fn iteration_budget_scales_with_config() {
        assert_eq!(iterations_for(&ExperimentConfig::default()), 8);
        assert_eq!(
            iterations_for(&ExperimentConfig::default().with_iterations(100_000)),
            64
        );
        assert_eq!(
            iterations_for(&ExperimentConfig::default().with_iterations(1)),
            2
        );
    }
}
