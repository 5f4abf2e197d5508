//! Serialisation round-trips and report rendering across crates.

use gridcast::core::{BroadcastProblem, HeuristicKind, Schedule};
use gridcast::experiments::{FigureResult, Series};
use gridcast::prelude::*;
use gridcast::topology::Grid5000Spec;

#[test]
fn grid_and_schedule_round_trip_through_json() {
    let grid = grid5000_table3();
    let json = serde_json::to_string(&grid).expect("grid serialises");
    let back: Grid = serde_json::from_str(&json).expect("grid deserialises");
    assert_eq!(grid, back);

    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
    let schedule = HeuristicKind::BottomUp.schedule(&problem);
    let json = serde_json::to_string(&schedule).unwrap();
    let back: Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(schedule, back);
    assert!(back.validate(&problem).is_ok());
}

#[test]
fn problem_round_trips_and_stays_consistent() {
    let grid = grid5000_table3();
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(5), MessageSize::from_mib(2));
    let json = serde_json::to_string(&problem).unwrap();
    let back: BroadcastProblem = serde_json::from_str(&json).unwrap();
    assert_eq!(problem, back);
    // Scheduling the deserialised problem gives the same makespan.
    let a = HeuristicKind::EcefLaMin.schedule(&problem).makespan();
    let b = HeuristicKind::EcefLaMin.schedule(&back).makespan();
    assert_eq!(a, b);
}

#[test]
fn grid5000_spec_round_trips() {
    let spec = Grid5000Spec::table3();
    let json = serde_json::to_string(&spec).unwrap();
    let back: Grid5000Spec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    assert_eq!(back.total_machines(), 88);
}

#[test]
fn figure_results_serialise_and_render() {
    let mut figure = FigureResult::new("Round trip", "x", "y");
    figure.push(Series::new("a", vec![(1.0, 2.0), (3.0, 4.0)]));
    let json = serde_json::to_string(&figure).unwrap();
    let back: FigureResult = serde_json::from_str(&json).unwrap();
    assert_eq!(figure, back);
    assert!(back.to_ascii_table().contains("Round trip"));
    assert!(back.to_csv().starts_with("x,a"));
}

#[test]
fn simulation_outcomes_serialise() {
    let grid = grid5000_table3();
    let sim = Simulator::new(&grid, MessageSize::from_mib(1));
    let schedule = HeuristicKind::Ecef.schedule(&sim.problem(ClusterId(0)));
    let outcome = sim.execute_schedule(&schedule);
    let json = serde_json::to_string(&outcome).unwrap();
    let back: SimulationOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(outcome, back);
}
