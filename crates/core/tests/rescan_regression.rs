//! Pins the engine's invalidation-repair work on two fixed grids.
//!
//! The k-best candidate cache and the pruned rescan walk are what keep
//! `ScheduleEngine` near `n²`. A plausible-looking edit to the repair, offer
//! or walk logic can silently degrade them back into rescans without failing
//! any correctness test: schedules stay byte-identical and only the work done
//! changes. This test pins the exact counters of the seeded 100- and
//! 1000-cluster grids, so such a regression turns a build red instead of a
//! future timing run. 1000 clusters is the size perfbench's `batch_1000`
//! workload times.
//!
//! A drift fails with every heuristic's measured row in the syntax of the
//! pins, so one run shows all that moved, not only the first.

mod common;

use common::random_grid;
use gridcast_core::{BroadcastProblem, EngineTelemetry, HeuristicKind, ScheduleEngine};
use gridcast_plogp::MessageSize;
use gridcast_topology::ClusterId;

/// One heuristic's counters: (rounds, invalidations, second-best hits,
/// promotions, rescans, walked senders).
type Work = (u64, u64, u64, u64, u64, u64);

/// Schedules every heuristic once on the seeded `clusters`-cluster grid (1 MB
/// from cluster 0) and returns each run's counters in `HeuristicKind::all()`
/// order. The engine is single-threaded and the problem fixed, so the counts
/// are exact.
fn work_on(clusters: usize) -> Vec<(HeuristicKind, EngineTelemetry)> {
    let problem = BroadcastProblem::from_grid(
        &random_grid(clusters, 0),
        ClusterId(0),
        MessageSize::from_mib(1),
    );
    let mut engine = ScheduleEngine::new();
    HeuristicKind::all()
        .into_iter()
        .map(|kind| {
            let _ = engine.schedule(&problem, kind);
            let t = engine.take_telemetry();
            assert_eq!(
                t.rounds,
                clusters as u64 - 1,
                "{kind}: one commit per non-root cluster"
            );
            assert_eq!(
                t.invalidations,
                t.second_best_hits + t.promotions + t.rescans,
                "{kind}: every invalidation resolves exactly one way"
            );
            (kind, t)
        })
        .collect()
}

/// Asserts every heuristic's counters against `expected`. Any drift means the
/// invalidation logic changed. If the change is an intentional improvement,
/// re-pin the numbers and state why in the change log; if rescans or walked
/// senders grew, the k-best cache or the walk's pruning regressed.
fn assert_work(clusters: usize, work: &[(HeuristicKind, EngineTelemetry)], expected: [Work; 7]) {
    let mut drifted = Vec::new();
    let mut rows = String::new();
    for ((kind, t), expected) in work.iter().zip(expected) {
        let measured: Work = (
            t.rounds,
            t.invalidations,
            t.second_best_hits,
            t.promotions,
            t.rescans,
            t.walked_senders,
        );
        if measured != expected {
            drifted.push(kind.name());
        }
        rows += &format!("            {measured:?}, // {kind}\n");
    }
    assert!(
        drifted.is_empty(),
        "cache telemetry drifted on the pinned {clusters}-cluster grid for {drifted:?}; \
         measured rows:\n{rows}"
    );
}

#[test]
fn rescan_counts_are_pinned_on_the_100_cluster_grid() {
    let work = work_on(100);
    assert_work(
        100,
        &work,
        [
            (99, 0, 0, 0, 0, 0),            // Flat Tree (time-insensitive)
            (99, 0, 0, 0, 0, 0),            // FEF (time-insensitive)
            (99, 732, 204, 273, 255, 6414), // ECEF
            (99, 728, 197, 261, 270, 6379), // ECEF-LA
            (99, 771, 200, 271, 300, 6377), // ECEF-LAT
            (99, 832, 177, 310, 345, 6795), // ECEF-LAt
            (99, 877, 122, 327, 428, 7326), // BottomUp
        ],
    );

    // The acceptance bar of the k-best cache: at least half of all
    // invalidations repair from the cached runners-up without a rescan. At
    // the default row width (`DEFAULT_K_BEST = 2`) the runners-up cover ~59%
    // here and ~46% at 1000 clusters, where the pruned walk carries the
    // rest. The margin leaves room for workload drift, not for broken
    // repairs.
    let invalidations: u64 = work.iter().map(|(_, t)| t.invalidations).sum();
    let repaired: u64 = work
        .iter()
        .map(|(_, t)| t.repaired_from_second_best())
        .sum();
    assert!(
        repaired * 2 >= invalidations,
        "runner-up repairs cover only {repaired}/{invalidations} invalidations"
    );
}

/// The size where a regression in the walk shows most: 4.9 M walked senders
/// per seven-heuristic batch. A walk that stopped pruning, or a repair that
/// stopped using the runners-up, moves every time-sensitive row.
#[test]
fn rescan_counts_are_pinned_on_the_1000_cluster_grid() {
    let work = work_on(1000);
    assert_work(
        1000,
        &work,
        [
            (999, 0, 0, 0, 0, 0),                     // Flat Tree
            (999, 0, 0, 0, 0, 0),                     // FEF
            (999, 19755, 2249, 7222, 10284, 1046542), // ECEF
            (999, 19148, 2260, 6922, 9966, 992078),   // ECEF-LA
            (999, 23654, 2133, 8800, 12721, 989142),  // ECEF-LAT
            (999, 23665, 2160, 8813, 12692, 1002124), // ECEF-LAt
            (999, 25245, 1221, 9307, 14717, 854439),  // BottomUp
        ],
    );
}
