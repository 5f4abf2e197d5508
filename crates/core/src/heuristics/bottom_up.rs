//! The BottomUp heuristic (Section 5.3).

use crate::engine::{with_shared_engine, EngineView, Objective, ReplayTraits, SelectionPolicy};
use crate::heuristics::Heuristic;
use crate::{BroadcastProblem, Schedule};
use gridcast_plogp::Time;
use gridcast_topology::ClusterId;

/// The third grid-aware heuristic proposed by the paper.
///
/// Unlike the ECEF family (min-min / min-max strategies that favour fast
/// clusters), BottomUp applies a **max-min** rule: at every round it considers,
/// for every waiting cluster `j`, the best possible way to serve it —
/// `min_{i ∈ A} (g_ij + L_ij + T_j)` — and then selects the cluster whose best
/// service is *worst*:
///
/// ```text
/// max_{j ∈ B} ( min_{i ∈ A} ( g_ij(m) + L_ij + T_j ) )
/// ```
///
/// The slowest clusters (large transfer cost and/or long internal broadcast) are
/// therefore contacted as early as possible, so their internal broadcasts overlap
/// with the rest of the schedule, while each transfer still uses the cheapest
/// available sender — releasing senders early for the next rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BottomUp;

impl Heuristic for BottomUp {
    fn name(&self) -> &str {
        "BottomUp"
    }

    fn schedule(&self, problem: &BroadcastProblem) -> Schedule {
        with_shared_engine(|engine| engine.schedule_with(problem, &mut BottomUpPolicy))
    }
}

/// [`SelectionPolicy`] for BottomUp: each candidate edge is scored by its full
/// service cost `RT_i + g_ij + L_ij + T_j` (ready times included, so "cheapest
/// available sender" accounts for senders still busy with a previous transfer)
/// and the cross-receiver objective is **maximised** — the engine's max-min
/// mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct BottomUpPolicy;

impl SelectionPolicy for BottomUpPolicy {
    fn name(&self) -> &str {
        "BottomUp"
    }

    fn edge_score(&self, view: &EngineView<'_>, sender: ClusterId, receiver: ClusterId) -> Time {
        view.completion_estimate(sender, receiver) + view.problem().intra_time(receiver)
    }

    fn edge_score_offset(
        &self,
        _problem: &BroadcastProblem,
        _receiver: ClusterId,
        min_incoming_transfer: Time,
    ) -> Time {
        // Every candidate edge costs at least the receiver's cheapest incoming
        // transfer on top of the sender's ready time.
        min_incoming_transfer
    }

    fn edge_score_post_offset(&self, problem: &BroadcastProblem, receiver: ClusterId) -> Time {
        // The receiver's intra-cluster broadcast is added to every score
        // *after* the completion estimate's rounding — exactly the shape of
        // the engine's two-step bound `fl(fl(t + c_j) + d_j)`. Folding it
        // into the pre-offset instead would not be float-safe (addition is
        // monotone but not associative under rounding); as a separate
        // post-rounding component it tightens the rescan walk's retirement
        // bound by the full intra time.
        problem.intra_time(receiver)
    }

    fn sender_score_offset(
        &self,
        _problem: &BroadcastProblem,
        _sender: ClusterId,
        min_outgoing_transfer: Time,
    ) -> Time {
        // The completion estimate is `fl(RT_i + (g + L))` with
        // `g + L >= min_outgoing`, and the intra time is added after that
        // rounding — exactly the engine's two-step sender bound
        // `fl(fl(t + r_s) + d_j)`.
        min_outgoing_transfer
    }

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn uses_receiver_bias(&self) -> bool {
        false
    }

    fn replay_traits(&self) -> ReplayTraits {
        ReplayTraits {
            gap_blind: false,
            // Scores grow with gaps, but the *maximised* objective means a
            // worsening delta can flip selections in either direction — the
            // engine's replay therefore keeps BottomUp in checked mode
            // (replay until perturbed state enters A), which `gap_monotone`
            // alone does not override.
            gap_monotone: true,
            replay_bias_exact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;
    use gridcast_topology::SquareMatrix;

    fn ms(v: f64) -> Time {
        Time::from_millis(v)
    }

    fn problem_with_intra(intra: Vec<Time>) -> BroadcastProblem {
        let n = intra.len();
        let mut latency = SquareMatrix::filled(n, ms(1.0));
        let mut gap = SquareMatrix::filled(n, ms(100.0));
        for i in 0..n {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        BroadcastProblem::from_parts(ClusterId(0), MessageSize::from_mib(1), latency, gap, intra)
    }

    #[test]
    fn slowest_cluster_is_served_first() {
        // Cluster 3 has by far the longest internal broadcast; BottomUp must
        // contact it in the very first round.
        let problem = problem_with_intra(vec![Time::ZERO, ms(50.0), ms(100.0), ms(2000.0)]);
        let schedule = BottomUp.schedule(&problem);
        assert!(schedule.validate(&problem).is_ok());
        assert_eq!(schedule.events[0].receiver, ClusterId(3));
    }

    #[test]
    fn cheapest_available_sender_is_used() {
        // After the first round two senders exist; the second round must use the
        // one that can complete the transfer earlier, not blindly the root.
        let n = 3;
        let mut latency = SquareMatrix::filled(n, ms(1.0));
        let mut gap = SquareMatrix::filled(n, ms(100.0));
        for i in 0..n {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        // Cluster 1 → 2 is much cheaper than 0 → 2.
        gap[(1, 2)] = ms(10.0);
        let problem = BroadcastProblem::from_parts(
            ClusterId(0),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO, Time::ZERO, ms(300.0)],
        );
        let schedule = BottomUp.schedule(&problem);
        assert!(schedule.validate(&problem).is_ok());
        // Round 1: cluster 2 (largest T + transfer) is served by the root.
        assert_eq!(schedule.events[0].receiver, ClusterId(2));
        // Round 2: cluster 1 served by whoever is cheapest — the root is busy
        // until 100 ms, and 2 only becomes ready at 201 ms, so the root it is.
        assert_eq!(schedule.events[1].sender, ClusterId(0));
        assert_eq!(schedule.events[1].receiver, ClusterId(1));
    }

    #[test]
    fn beats_fef_when_slow_clusters_dominate() {
        // The paper's observation (Figure 1): accounting for slow clusters can
        // matter more than pure interconnection speed. Build an instance with one
        // very slow cluster that FEF (latency-greedy) serves last.
        let n = 5;
        let mut latency = SquareMatrix::filled(n, ms(1.0));
        let mut gap = SquareMatrix::filled(n, ms(100.0));
        for i in 0..n {
            latency[(i, i)] = Time::ZERO;
            gap[(i, i)] = Time::ZERO;
        }
        // The slow cluster (4) also has the largest latency from everyone, so a
        // latency-greedy order reaches it last.
        for i in 0..4 {
            latency[(i, 4)] = ms(14.0);
            latency[(4, i)] = ms(14.0);
        }
        let problem = BroadcastProblem::from_parts(
            ClusterId(0),
            MessageSize::from_mib(1),
            latency,
            gap,
            vec![Time::ZERO, ms(20.0), ms(20.0), ms(20.0), ms(2500.0)],
        );
        let bottom_up = BottomUp.schedule(&problem).makespan();
        let fef = crate::heuristics::FastestEdgeFirst
            .schedule(&problem)
            .makespan();
        assert!(
            bottom_up < fef,
            "BottomUp ({bottom_up}) should beat FEF ({fef}) when a slow cluster dominates"
        );
    }
}
