//! Gather as the time-reversed scatter dual, and the exchange-scheduler
//! scaling win.
//!
//! Two comparisons extend the `patterns` figure:
//!
//! * **Gather policies** — the relay-capable gather orderings
//!   ([`gridcast_core::RelayGatherProblem`]) on the Table-3 grid, rooted at
//!   cluster 0, over per-node block sizes. A fourth series plots the
//!   relay-capable *scatter* with the same policy: GRID'5000's links are
//!   symmetric, so the time-reversal duality makes the two curves coincide
//!   exactly — the plotted overlap is the duality made visible.
//! * **Exchange-scheduler scaling** — the work of the lazy-invalidation
//!   heap ([`ScheduleEngine::schedule_transfers`]) against that of an
//!   O(T²) earliest-completion scan on all-to-all transfer sets of growing
//!   cluster count (T = n·(n−1) transfers). The heap's work is the entries
//!   it pops ([`gridcast_core::EngineTelemetry::exchange_pops`]), ~O(T^1.5)
//!   on these dense sets and O(T log T) on sparse ones; the scan evaluates
//!   exactly T(T+1)/2 candidate completions. The two produce byte-identical
//!   schedules (proptested against a test-only copy of the scan); only the
//!   work differs, and counting it keeps the panel the same on every run.

use crate::params::ExperimentConfig;
use crate::report::{FigureResult, Series};
use gridcast_core::{
    RelayGatherProblem, RelayOrdering, RelayScatterProblem, ScheduleEngine, TransferSet,
};
use gridcast_plogp::MessageSize;
use gridcast_topology::{grid5000_table3, ClusterId, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-node block sizes swept by the gather comparison (KiB).
pub const GATHER_KIB: [u64; 5] = [4, 16, 64, 256, 1024];

/// Cluster counts swept by the exchange-scheduler comparison. The heap's
/// work is also pinned at 64 clusters and gated up to 200 by the core
/// crate's `exchange_regression` test.
pub const EXCHANGE_CLUSTERS: [usize; 4] = [25, 50, 100, 150];

/// Runs the gather-policy comparison on the Table-3 grid.
pub fn run(_config: &ExperimentConfig) -> FigureResult {
    gather_comparison(
        "Gather on GRID'5000: relay policies vs the scatter dual",
        &GATHER_KIB,
    )
}

/// The sweep behind [`run`], reusable with reduced sizes for smoke tests.
pub fn gather_comparison(title: &str, kib_sizes: &[u64]) -> FigureResult {
    let grid = grid5000_table3();
    let root = ClusterId(0);
    let orderings = [
        ("Gather direct (reversed MagPIe)", RelayOrdering::Direct),
        (
            "Gather relay (earliest completion)",
            RelayOrdering::EarliestCompletion,
        ),
        (
            "Gather relay (earliest local finish)",
            RelayOrdering::EarliestLocalFinish,
        ),
    ];
    let mut series: Vec<(String, Vec<(f64, f64)>)> = orderings
        .iter()
        .map(|(label, _)| ((*label).to_owned(), Vec::with_capacity(kib_sizes.len())))
        .collect();
    let mut dual = Vec::with_capacity(kib_sizes.len());
    for &kib in kib_sizes {
        let per_node = MessageSize::from_kib(kib);
        let gather = RelayGatherProblem::from_grid(&grid, root, per_node);
        for ((_, ordering), (_, points)) in orderings.iter().zip(series.iter_mut()) {
            points.push((kib as f64, gather.makespan(*ordering).as_secs()));
        }
        // The scatter dual on the same (symmetric) grid: coincides with the
        // earliest-completion gather bit for bit.
        let scatter = RelayScatterProblem::from_grid(&grid, root, per_node);
        dual.push((
            kib as f64,
            scatter
                .makespan(RelayOrdering::EarliestCompletion)
                .as_secs(),
        ));
    }
    let mut figure = FigureResult::new(title, "per-node block (KiB)", "completion time (s)");
    for (label, points) in series {
        figure.push(Series::new(label, points));
    }
    figure.push(Series::new("Scatter dual (earliest completion)", dual));
    figure
}

/// Runs the exchange-scheduler scaling comparison.
pub fn run_exchange(_config: &ExperimentConfig) -> FigureResult {
    exchange_scaling(
        "Exchange scheduler: lazy-invalidation heap vs O(T²) scan, in work",
        &EXCHANGE_CLUSTERS,
    )
}

/// Builds the all-to-all transfer set of a random Table-2 grid — the workload
/// the exchange scheduler exists for, priced by the same
/// [`gridcast_core::alltoall_transfer_set`] builder `alltoall_schedule`
/// consumes (so the benchmarked workload is the product path, not a copy).
pub fn alltoall_transfer_set(clusters: usize, seed: u64) -> TransferSet {
    let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
    gridcast_core::alltoall_transfer_set(&grid, MessageSize::from_kib(4))
}

/// The sweep behind [`run_exchange`]: x is the transfer count T, the heap
/// series the heap entries popped to schedule the set, the oracle series the
/// candidate completions an O(T²) earliest-completion scan evaluates, which
/// is exactly T(T+1)/2 (it scans every pending transfer once per commit).
pub fn exchange_scaling(title: &str, cluster_counts: &[usize]) -> FigureResult {
    let mut engine = ScheduleEngine::new();
    let mut heap_pops = Vec::with_capacity(cluster_counts.len());
    let mut oracle_scans = Vec::with_capacity(cluster_counts.len());
    for (i, &clusters) in cluster_counts.iter().enumerate() {
        let set = alltoall_transfer_set(clusters, 1000 + i as u64);
        let transfers = set.transfers().len() as f64;
        let _ = engine.schedule_transfers(&set);
        let pops = engine.take_telemetry().exchange_pops as f64;
        heap_pops.push((transfers, pops));
        oracle_scans.push((transfers, transfers * (transfers + 1.0) / 2.0));
    }
    let mut figure = FigureResult::new(title, "transfers (T)", "work (heap pops, oracle scans)");
    figure.push(Series::new("Heap pops (lazy invalidation)", heap_pops));
    figure.push(Series::new("Oracle scans (T(T+1)/2)", oracle_scans));
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_series_coincide_with_the_scatter_dual_on_the_symmetric_grid() {
        let fig = gather_comparison("t", &[16, 256]);
        assert_eq!(fig.series.len(), 4);
        let gather = fig
            .series_by_label("Gather relay (earliest completion)")
            .unwrap();
        let dual = fig
            .series_by_label("Scatter dual (earliest completion)")
            .unwrap();
        for (g, s) in gather.points.iter().zip(&dual.points) {
            assert!(g.y.is_finite() && g.y > 0.0);
            // GRID'5000 is symmetric, so the duality makes the curves equal
            // to the last bit.
            assert_eq!(g.y.to_bits(), s.y.to_bits());
        }
        // The relay-capable ordering never loses to the reversed direct one.
        let direct = fig
            .series_by_label("Gather direct (reversed MagPIe)")
            .unwrap();
        for (g, d) in gather.points.iter().zip(&direct.points) {
            assert!(g.y <= d.y * 1.001);
        }
    }

    #[test]
    fn exchange_scaling_counts_heap_work_below_the_quadratic_scan() {
        let fig = exchange_scaling("t", &[6, 10]);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.x_values(), vec![30.0, 90.0]);
        let heap = &fig.series[0].points;
        let oracle = &fig.series[1].points;
        assert_eq!(oracle[0].y, 465.0);
        assert_eq!(oracle[1].y, 4095.0);
        for (h, o) in heap.iter().zip(oracle) {
            // One fresh pop per commit at least; never more than the scan.
            assert!(h.y >= h.x && h.y < o.y, "{} pops at T = {}", h.y, h.x);
        }
    }
}
