//! The high-level simulator façade tying schedules, plans and the engine
//! together.

use crate::engine::execute_plan_with_sink;
use crate::network::NodeNetwork;
use crate::outcome::SimulationOutcome;
use crate::plan::SendPlan;
use crate::trace::NullSink;
use gridcast_core::{BroadcastProblem, HeuristicKind, Schedule};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, Grid};

/// Executes broadcast operations on a simulated grid.
///
/// This plays the role of the paper's modified MagPIe library running on
/// GRID'5000: it takes a scheduling heuristic, computes the inter-cluster
/// schedule, realises it as a node-level plan with binomial intra-cluster
/// trees, and measures the resulting completion time with the discrete-event
/// engine.
#[derive(Debug, Clone)]
pub struct Simulator {
    grid: Grid,
    network: NodeNetwork,
    message: MessageSize,
}

impl Simulator {
    /// Creates a simulator for `grid` broadcasting messages of size `message`.
    pub fn new(grid: &Grid, message: MessageSize) -> Self {
        Simulator {
            grid: grid.clone(),
            network: NodeNetwork::new(grid),
            message,
        }
    }

    /// The simulated grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The message size being broadcast.
    pub fn message(&self) -> MessageSize {
        self.message
    }

    /// The broadcast problem instance seen by the scheduling heuristics.
    pub fn problem(&self, root: ClusterId) -> BroadcastProblem {
        BroadcastProblem::from_grid(&self.grid, root, self.message)
    }

    /// Executes an already-computed inter-cluster schedule; the root holds
    /// the message at time zero.
    pub fn execute_schedule(&self, schedule: &Schedule) -> SimulationOutcome {
        self.execute_schedule_with_sink(schedule, &mut NullSink)
    }

    /// Executes an already-computed schedule with a caller-chosen
    /// [`TraceSink`](crate::trace::TraceSink): a `Vec<TraceEvent>` retains
    /// the trace, a [`StreamingSink`](crate::trace::StreamingSink) streams it
    /// instead of materialising it.
    pub fn execute_schedule_with_sink<S: crate::trace::TraceSink>(
        &self,
        schedule: &Schedule,
        sink: &mut S,
    ) -> SimulationOutcome {
        let plan = SendPlan::from_grid_schedule(&self.grid, schedule);
        execute_plan_with_sink(&self.network, &plan, self.message, Time::ZERO, sink)
    }

    /// Schedules the broadcast with `kind` rooted at `root` and executes it.
    /// The scheduling time itself is not charged (see the crate docs), so
    /// the result depends on the grid, the message and `kind` alone.
    pub fn run_heuristic(
        &self,
        kind: HeuristicKind,
        root: ClusterId,
    ) -> (Schedule, SimulationOutcome) {
        let schedule = kind.schedule(&self.problem(root));
        let outcome = self.execute_schedule(&schedule);
        (schedule, outcome)
    }

    /// Executes the grid-unaware binomial tree over all machines — the
    /// "Default LAM" baseline of Figure 6.
    pub fn run_default_mpi(&self, root: ClusterId) -> SimulationOutcome {
        let plan = SendPlan::binomial_over_all_nodes(&self.grid, root);
        execute_plan_with_sink(
            &self.network,
            &plan,
            self.message,
            Time::ZERO,
            &mut NullSink,
        )
    }

    /// The model-predicted makespan for a heuristic (what Figure 5 plots),
    /// without executing anything.
    pub fn predict_heuristic(&self, kind: HeuristicKind, root: ClusterId) -> Time {
        kind.schedule(&self.problem(root)).makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_topology::grid5000_table3;

    fn simulator(mib: u64) -> Simulator {
        Simulator::new(&grid5000_table3(), MessageSize::from_mib(mib))
    }

    #[test]
    fn every_heuristic_executes_and_reaches_all_machines() {
        let sim = simulator(1);
        for kind in HeuristicKind::all() {
            let (schedule, outcome) = sim.run_heuristic(kind, ClusterId(0));
            assert!(
                schedule.validate(&sim.problem(ClusterId(0))).is_ok(),
                "{kind}"
            );
            assert!(outcome.completion.is_finite(), "{kind}");
            assert!(
                outcome.receive_times.iter().all(|t| t.is_finite()),
                "{kind}"
            );
            assert_eq!(outcome.messages, 87, "{kind}");
        }
    }

    #[test]
    fn grid_aware_heuristics_beat_flat_tree_in_execution() {
        // The headline result of Figure 6: the flat tree is by far the worst
        // strategy on the 88-machine grid, and the ECEF family wins.
        let sim = simulator(4);
        let root = ClusterId(0);
        let flat = sim
            .run_heuristic(HeuristicKind::FlatTree, root)
            .1
            .completion;
        let ecef_la = sim.run_heuristic(HeuristicKind::EcefLa, root).1.completion;
        let ecef_lat = sim
            .run_heuristic(HeuristicKind::EcefLaMax, root)
            .1
            .completion;
        assert!(ecef_la < flat, "ECEF-LA {ecef_la} vs Flat {flat}");
        assert!(ecef_lat < flat, "ECEF-LAT {ecef_lat} vs Flat {flat}");
        // And the default (grid-unaware) MPI binomial sits in between: better
        // than the flat tree, worse than the grid-aware schedules.
        let lam = sim.run_default_mpi(root).completion;
        assert!(lam < flat, "Default LAM {lam} vs Flat {flat}");
        assert!(ecef_la < lam, "ECEF-LA {ecef_la} vs Default LAM {lam}");
    }

    #[test]
    fn predictions_track_measurements() {
        // Figure 5 vs Figure 6: "performance predictions fit with a good
        // precision the practical results". The prediction uses T_i from the
        // best intra-cluster algorithm while the execution uses binomial trees,
        // so we allow a generous 35 % band rather than exact agreement.
        let sim = simulator(1);
        let root = ClusterId(0);
        for kind in [
            HeuristicKind::FlatTree,
            HeuristicKind::Ecef,
            HeuristicKind::EcefLaMax,
            HeuristicKind::BottomUp,
        ] {
            let predicted = sim.predict_heuristic(kind, root);
            let (_, outcome) = sim.run_heuristic(kind, root);
            let measured = outcome.completion;
            let rel = (predicted.as_secs() - measured.as_secs()).abs() / measured.as_secs();
            assert!(
                rel < 0.35,
                "{kind}: predicted {predicted} vs measured {measured} (rel {rel:.2})"
            );
        }
    }

    #[test]
    fn traced_execution_matches_untraced() {
        let sim = simulator(1);
        let root = ClusterId(2);
        let schedule = HeuristicKind::BottomUp.schedule(&sim.problem(root));
        let plain = sim.execute_schedule(&schedule);
        let mut trace: Vec<crate::trace::TraceEvent> = Vec::new();
        let traced = sim.execute_schedule_with_sink(&schedule, &mut trace);
        assert_eq!(plain.completion, traced.completion);
        assert!(!trace.is_empty());
    }

    #[test]
    fn completion_grows_with_message_size() {
        let small = simulator(1);
        let large = simulator(4);
        let root = ClusterId(0);
        let t_small = small
            .run_heuristic(HeuristicKind::EcefLa, root)
            .1
            .completion;
        let t_large = large
            .run_heuristic(HeuristicKind::EcefLa, root)
            .1
            .completion;
        assert!(t_large > t_small);
    }

    #[test]
    fn any_root_cluster_works() {
        let sim = simulator(1);
        for root in sim.grid().cluster_ids() {
            let (_, outcome) = sim.run_heuristic(HeuristicKind::EcefLaMax, root);
            assert!(outcome.completion.is_finite());
            // The root coordinator never receives over the network, and no
            // scheduling time is charged: it holds the message at time zero.
            let root_time = outcome.receive_time(sim.grid().coordinator(root));
            assert_eq!(root_time, Time::ZERO);
        }
    }
}
