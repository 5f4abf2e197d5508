//! Figure 6: measured (simulated execution) broadcast times on the 88-machine
//! GRID'5000 grid, including the grid-unaware "Default LAM" binomial baseline.

use crate::figures::fig5::{heuristics, message_sizes};
use crate::params::ExperimentConfig;
use crate::report::{FigureResult, Series};
use gridcast_simulator::Simulator;
use gridcast_topology::{grid5000_table3, ClusterId};

/// Reproduces Figure 6: every heuristic is scheduled and then *executed* by
/// the discrete-event simulator; the grid-unaware binomial tree over all 88
/// ranks is included as the "Default LAM" series.
///
/// The time spent computing each schedule is not charged. Section 7 of the
/// paper warns that an elaborate heuristic's scheduling cost delays the
/// broadcast, but on these six clusters every heuristic schedules in about a
/// microsecond: at most 1.3·10⁻⁵ of any point from 0.5 MB up and under 10⁻³
/// of the 0-byte point (README's claims table gives the measurement). The
/// figure is therefore a pure function of the grid and the message sizes.
pub fn run(_config: &ExperimentConfig) -> FigureResult {
    let grid = grid5000_table3();
    let root = ClusterId(0);
    let mut figure = FigureResult::new(
        "Figure 6: measured completion time for a broadcast in an 88-machine grid",
        "message size (bytes)",
        "completion time (s)",
    );

    // Default LAM: stock MPI binomial over all ranks.
    let lam_points: Vec<(f64, f64)> = message_sizes()
        .into_iter()
        .map(|m| {
            let sim = Simulator::new(&grid, m);
            (m.as_f64(), sim.run_default_mpi(root).completion.as_secs())
        })
        .collect();
    figure.push(Series::new("Default LAM", lam_points));

    for kind in heuristics() {
        let points: Vec<(f64, f64)> = message_sizes()
            .into_iter()
            .map(|m| {
                let sim = Simulator::new(&grid, m);
                let (_, outcome) = sim.run_heuristic(kind, root);
                (m.as_f64(), outcome.completion.as_secs())
            })
            .collect();
        figure.push(Series::new(kind.name(), points));
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;

    /// The measured-vs-predicted relative error per heuristic at one message
    /// size: the paper's "predictions fit with a good precision the practical
    /// results" claim, quantified.
    fn prediction_error_at(m: MessageSize) -> Vec<(String, f64)> {
        let grid = grid5000_table3();
        let root = ClusterId(0);
        let sim = Simulator::new(&grid, m);
        heuristics()
            .into_iter()
            .map(|kind| {
                let predicted = sim.predict_heuristic(kind, root).as_secs();
                let measured = sim.run_heuristic(kind, root).1.completion.as_secs();
                let rel = if measured > 0.0 {
                    (predicted - measured).abs() / measured
                } else {
                    0.0
                };
                (kind.name().to_string(), rel)
            })
            .collect()
    }

    #[test]
    fn measured_ordering_matches_the_paper() {
        let fig = run(&ExperimentConfig::quick());
        // 7 heuristics + the Default LAM baseline.
        assert_eq!(fig.series.len(), 8);
        let four_mb = 4_000_000.0;
        let at = |label: &str| fig.series_by_label(label).unwrap().y_at(four_mb).unwrap();

        let flat = at("Flat Tree");
        let lam = at("Default LAM");
        let ecef_la = at("ECEF-LA");
        let ecef_lat = at("ECEF-LAT");

        // Paper, Section 7: ECEF-like heuristics below 3 s for 4 MB; the flat
        // tree several times slower and even worse than the grid-unaware
        // binomial tree.
        assert!(ecef_la < 3.5, "ECEF-LA measured {ecef_la}");
        assert!(ecef_lat < 3.5, "ECEF-LAT measured {ecef_lat}");
        assert!(lam < flat, "Default LAM {lam} should beat Flat Tree {flat}");
        assert!(
            ecef_la < lam,
            "ECEF-LA {ecef_la} should beat Default LAM {lam}"
        );
        assert!(
            flat > 3.0 * ecef_la,
            "Flat Tree {flat} should be several times ECEF-LA {ecef_la}"
        );
    }

    #[test]
    fn predictions_fit_measurements_reasonably() {
        // The paper observes a good fit between Figures 5 and 6; our substitute
        // testbed executes binomial intra-cluster trees while the prediction
        // uses the best algorithm per cluster, so we accept a wider band.
        for (name, rel) in prediction_error_at(MessageSize::from_mib(1)) {
            assert!(
                rel < 0.5,
                "{name}: predicted and measured diverge by {:.0} %",
                rel * 100.0
            );
        }
    }
}
