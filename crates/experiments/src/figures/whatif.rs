//! What-if analysis: how the best broadcast strategy shifts as the root's
//! uplink degrades.
//!
//! The paper's Section 7 motivation is *predictive scheduling* — evaluate the
//! candidate heuristics against the model and commit to the winner before
//! paying wide-area prices. This figure runs that loop under perturbation:
//! the GRID'5000 Table-3 grid with the root cluster's **uplink gap scaled**
//! by growing factors (a congested or mis-provisioned site link, the
//! operational scenario a grid scheduler actually faces). For every factor
//! the [`WhatIfRunner`] predicts all seven heuristics, and two extra series
//! carry the winner's prediction and its node-level execution on the unified
//! discrete-event core.
//!
//! The flat tree — the paper's winner on the healthy grid — degrades fastest
//! (every byte it moves crosses the degraded uplink exactly once per
//! cluster), while relaying strategies route around the damage; the crossover
//! is the figure's point: the *ranking* of heuristics is not stable under
//! perturbation, so predicting per-instance (many what-ifs per second) beats
//! fixing one strategy offline.

use crate::params::ExperimentConfig;
use crate::report::{FigureResult, Series};
use gridcast_plogp::MessageSize;
use gridcast_simulator::{Perturbation, Scenario, WhatIfRunner};
use gridcast_topology::{grid5000_table3, ClusterId};

/// Uplink degradation factors swept by the figure (1 = the healthy grid).
pub const DEGRADATION_FACTORS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Runs the what-if sweep on the Table-3 grid.
pub fn run(_config: &ExperimentConfig) -> FigureResult {
    degradation_sweep(
        "What-if on GRID'5000: root uplink degraded, best schedule re-picked",
        &DEGRADATION_FACTORS,
    )
}

/// The sweep behind [`run`], reusable with fewer factors for smoke tests.
pub fn degradation_sweep(title: &str, factors: &[f64]) -> FigureResult {
    let grid = grid5000_table3();
    let root = ClusterId(0);
    // The figure is tiny (a handful of scenarios): one worker runs them on
    // the calling thread.
    let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), root).with_threads(1);
    let scenarios: Vec<Scenario> = factors
        .iter()
        .map(|&factor| {
            if factor == 1.0 {
                Scenario::baseline()
            } else {
                Scenario::one(Perturbation::DegradeUplink {
                    cluster: root,
                    factor,
                })
            }
        })
        .collect();
    let reports = runner.run(&scenarios);

    let mut figure = FigureResult::new(title, "root uplink gap factor", "completion time (s)");
    for (slot, kind) in runner.kinds().iter().enumerate() {
        let points: Vec<(f64, f64)> = factors
            .iter()
            .zip(&reports)
            .map(|(&f, r)| (f, r.makespans[slot].as_secs()))
            .collect();
        figure.push(Series::new(kind.name(), points));
    }
    figure.push(Series::new(
        "Best (predicted)",
        factors
            .iter()
            .zip(&reports)
            .map(|(&f, r)| (f, r.predicted.as_secs()))
            .collect::<Vec<_>>(),
    ));
    figure.push(Series::new(
        "Best (simulated)",
        factors
            .iter()
            .zip(&reports)
            .map(|(&f, r)| (f, r.simulated.as_secs()))
            .collect::<Vec<_>>(),
    ));
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatif_figure_has_all_heuristics_plus_best_series() {
        let fig = degradation_sweep("t", &[1.0, 8.0]);
        // 7 heuristics + predicted best + simulated best.
        assert_eq!(fig.series.len(), 9);
        assert_eq!(fig.x_values(), vec![1.0, 8.0]);
        let best = fig.series_by_label("Best (predicted)").unwrap();
        for series in &fig.series {
            for (p, b) in series.points.iter().zip(&best.points) {
                assert!(p.y.is_finite() && p.y > 0.0);
                if series.label != "Best (simulated)" {
                    // The best series is the pointwise minimum of the
                    // heuristic predictions.
                    assert!(p.y >= b.y);
                }
            }
        }
    }

    #[test]
    fn degradation_strictly_hurts_the_flat_tree() {
        let fig = degradation_sweep("t", &[1.0, 32.0]);
        let flat = fig.series_by_label("Flat Tree").unwrap();
        assert!(flat.points[1].y > flat.points[0].y);
    }
}
