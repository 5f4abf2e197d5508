//! The Flat Tree baseline (Section 4.1).

use crate::engine::{with_shared_engine, EngineView, ReplayTraits, SelectionPolicy};
use crate::heuristics::Heuristic;
use crate::{BroadcastProblem, Schedule};
use gridcast_plogp::Time;
use gridcast_topology::ClusterId;

/// The strategy used by the ECO and MagPIe libraries: the root coordinator sends
/// the message to every other cluster coordinator itself, sequentially, in the
/// order the clusters are listed — regardless of link speeds and regardless of
/// the other potential senders that appear in set A along the way.
///
/// The paper uses it as the baseline that every other heuristic must beat; its
/// only virtues are simplicity and a negligible scheduling cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatTree;

impl Heuristic for FlatTree {
    fn name(&self) -> &str {
        "Flat Tree"
    }

    fn schedule(&self, problem: &BroadcastProblem) -> Schedule {
        with_shared_engine(|engine| engine.schedule_with(problem, &mut FlatTreePolicy::new()))
    }
}

/// [`SelectionPolicy`] expressing the flat tree in the engine's formalism: only
/// edges leaving the root are admissible (everything else scores infinity), and
/// with all objectives equal the receiver tie-break walks cluster ids in order
/// — the "depends on how the clusters list is arranged" behaviour the paper
/// criticises.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatTreePolicy {
    root: ClusterId,
}

impl FlatTreePolicy {
    /// Creates the policy; the root is captured at [`SelectionPolicy::reset`].
    pub fn new() -> Self {
        FlatTreePolicy::default()
    }
}

impl SelectionPolicy for FlatTreePolicy {
    fn name(&self) -> &str {
        "Flat Tree"
    }

    fn reset(&mut self, view: &EngineView<'_>) {
        self.root = view.problem().root;
    }

    fn edge_score(&self, _view: &EngineView<'_>, sender: ClusterId, _receiver: ClusterId) -> Time {
        if sender == self.root {
            Time::ZERO
        } else {
            Time::INFINITY
        }
    }

    fn sender_time_sensitive(&self) -> bool {
        false
    }

    fn uses_receiver_bias(&self) -> bool {
        false
    }

    fn replay_traits(&self) -> ReplayTraits {
        ReplayTraits {
            // Constant scores (root or not): no perturbed quantity is ever
            // read, so every logged selection stands verbatim.
            gap_blind: true,
            gap_monotone: true,
            replay_bias_exact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::{MessageSize, Time};
    use gridcast_topology::{ClusterId, SquareMatrix};

    fn uniform_problem(n: usize, root: usize) -> BroadcastProblem {
        let mut latency = SquareMatrix::filled(n, Time::from_millis(2.0));
        let mut gap = SquareMatrix::filled(n, Time::from_millis(100.0));
        for i in 0..n {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        BroadcastProblem::from_parts(
            ClusterId(root),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO; n],
        )
    }

    #[test]
    fn root_sends_everything_sequentially() {
        let problem = uniform_problem(5, 0);
        let schedule = FlatTree.schedule(&problem);
        assert!(schedule.validate(&problem).is_ok());
        // Every event is sent by the root.
        assert!(schedule.events.iter().all(|e| e.sender == ClusterId(0)));
        // The k-th transfer starts after k gaps: last arrival = 4·g + g + L... i.e.
        // start of 4th = 3 * 100 ms, arrival = 300 + 102 = 402 ms.
        let last = schedule.events.last().unwrap();
        let eps = Time::from_micros(1.0);
        assert!(last.start.approx_eq(Time::from_millis(300.0), eps));
        assert!(last.arrival.approx_eq(Time::from_millis(402.0), eps));
        assert!(schedule.makespan().approx_eq(Time::from_millis(402.0), eps));
    }

    #[test]
    fn works_with_non_zero_root() {
        let problem = uniform_problem(4, 2);
        let schedule = FlatTree.schedule(&problem);
        assert!(schedule.validate(&problem).is_ok());
        assert!(schedule.events.iter().all(|e| e.sender == ClusterId(2)));
        assert_eq!(schedule.num_transfers(), 3);
    }

    #[test]
    fn makespan_grows_linearly_with_cluster_count() {
        // The paper's key criticism: with a flat tree the completion time grows
        // linearly with the number of clusters.
        let m5 = FlatTree.schedule(&uniform_problem(5, 0)).makespan();
        let m10 = FlatTree.schedule(&uniform_problem(10, 0)).makespan();
        let m20 = FlatTree.schedule(&uniform_problem(20, 0)).makespan();
        let step1 = m10 - m5;
        let step2 = m20 - m10;
        // 5 extra clusters cost ~5 gaps; 10 extra ~10 gaps.
        assert!((step1.as_millis() - 500.0).abs() < 1.0);
        assert!((step2.as_millis() - 1000.0).abs() < 1.0);
    }
}
