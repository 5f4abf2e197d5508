//! Shared workload helpers for the four benches: `engine_scaling`, `whatif`,
//! `faults` and `serving`.
//!
//! Each bench asserts its own correctness gates and writes one report at the
//! workspace root; the schemas follow. The helpers here build the
//! deterministic problem instances the benches operate on so that all benches
//! agree on the workloads and stay reproducible across runs.
//!
//! # `BENCH_engine_scaling.json` schema
//!
//! `benches/engine_scaling.rs` writes a machine-readable report to the
//! workspace root (atomically: a sibling `.tmp` file renamed into place, so a
//! crashed run never leaves a torn report). Top-level keys:
//!
//! * `bench` — always `"engine_scaling"`;
//! * `unit` — `"ns per schedule_all (7 heuristics)"`;
//! * `fitted_exponent` — least-squares slope of `log(median_ns)` over
//!   `log(clusters)` across **all** points (the growth gate; a pure
//!   `O(n^p)` cost would fit `p`);
//! * `points` — one object per cluster count, with:
//!   * `clusters`, `median_ns` — batched `schedule_all` median wall time;
//!   * `k_best` — the candidate-row width of the measured engine
//!     ([`gridcast_core::DEFAULT_K_BEST`], the same at every size);
//!   * `growth_vs_prev` — ratio to the previous point's `median_ns`;
//!   * `per_heuristic_median_ns` — object keyed by heuristic display name,
//!     median `ScheduleEngine::makespan` wall time each;
//!   * `telemetry` — [`gridcast_core::EngineTelemetry`] deltas of one
//!     batch: `rounds`, `invalidations`, `second_best_hits`, `promotions`,
//!     `rescans`, `walked_senders` (senders actually examined by rescan
//!     walks), `bucket_skips` (ready-order buckets the walk retired
//!     wholesale via their cached lower bound) and the derived
//!     `repair_rate` (repaired-from-runner-up / invalidations);
//! * `frontier` — the 10 000-cluster point (`clusters`, `k_best` — the row
//!   width it ran at, `generate_secs`, `batch_secs`, rescan counters,
//!   `repair_rate` and each heuristic's predicted makespan), measured under
//!   `ENGINE_SCALING_FRONTIER=1` and carried over verbatim otherwise;
//! * `k_best_probe` — the candidate-row width probe: one object per
//!   (cluster count, K) pair for K ∈ {2, 4, 8, 16, 32} at 500/1000
//!   clusters, with the warmed batch wall time (`batch_ns`), `repair_rate`,
//!   `rescans`, `walked_senders` and `bucket_skips` of a
//!   [`ScheduleEngine::with_k_best`](gridcast_core::ScheduleEngine::with_k_best)
//!   engine. Schedules are byte-identical across K (pinned by the core's
//!   parity test), so the probe isolates the pure performance trade-off.
//!
//! The bench fails when `fitted_exponent` exceeds 2.08 (the sweep measures
//! ~2.04 — the tail's remaining rescan walk is memory-bound — while a
//! reintroduced super-quadratic rescan term lands ≥2.15), with
//! `ENGINE_SCALING_BASELINE_GATE=1` (as set in CI) when the 200-cluster
//! `median_ns` regresses more than 15% against the committed report, and
//! with `ENGINE_BATCH_GATE=1` when the 1000-cluster seven-heuristic batch
//! median exceeds its 100 ms absolute-time floor — the raw-speed ladder's
//! target; CI arms a calibrated `ENGINE_BATCH_GATE=200` instead, the
//! current dev-container median (~130–150 ms) plus runner noise.
//!
//! # `BENCH_whatif.json` schema
//!
//! `benches/whatif.rs` sweeps 1000 perturbed 100-cluster scenarios through
//! [`gridcast_simulator::WhatIfRunner`] twice — one worker thread, then all
//! available cores — asserting the two sweeps **bit-identical** report for
//! report and every winning schedule executable (this is CI's check mode;
//! the assertions run on every invocation). Keys: `clusters`, `scenarios`,
//! `single_thread` / `parallel` (`elapsed_s`, `scenarios_per_sec`, worker
//! `threads`), `bit_identical_across_thread_counts` (always `true` — the
//! bench aborts otherwise) and `winners` (how often each heuristic won the
//! what-if, keyed by display name — the quickest check that perturbations
//! actually move the decision).
//!
//! # `BENCH_serving.json` schema
//!
//! `benches/serving.rs` drives the [`gridcast_serve`] daemon's batch loop
//! with a sustained request mix (80% cache hits / 15% warm starts / 5%
//! cold runs) on a 100-cluster Table 2 grid, once with one worker and once
//! with every available core, asserting the transcripts bit-identical and
//! every cached/warm response byte-identical to a cold run of the same
//! request (CI's check mode; the assertions run on every invocation).
//! Keys: `clusters`, `fill_requests`, `mix_requests`, `batch`,
//! `single_thread` / `parallel` (`workers`, `mix_elapsed_s`,
//! `requests_per_sec`, and `p50_us` / `p99_us` — upper bounds of the
//! daemon's log₂ latency histogram, measured batch admission to response
//! render), `traffic` (`cache_hits` / `warm_starts` / `cold_runs` /
//! `errors` counters) and the three always-`true` consistency flags
//! (`bit_identical_across_worker_counts`, `cached_bit_identical_to_cold`,
//! `warm_start_bit_identical_to_cold` — the bench aborts otherwise).
//! With `SERVING_GATE` set (as in CI) the sustained multi-worker
//! throughput must clear `SERVING_FLOOR` (default 1000 requests/s).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use criterion::Criterion;
use gridcast_core::BroadcastProblem;
use gridcast_plogp::MessageSize;
use gridcast_topology::{ClusterId, Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Criterion configuration of the `engine_scaling` bench: small sample counts
/// and short measurement windows, so that its criterion group finishes in
/// seconds while still producing stable medians for the batch costs.
pub fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// The deterministic seed every bench derives its instances from.
pub const BENCH_SEED: u64 = 0x0B0B_5CA7;

/// A random Table 2 grid with `clusters` clusters, deterministic in `index`.
pub fn random_grid(clusters: usize, index: u64) -> Grid {
    let mut rng = ChaCha8Rng::seed_from_u64(BENCH_SEED.wrapping_add(index));
    GridGenerator::table2().generate(clusters, &mut rng)
}

/// A broadcast problem (1 MB, rooted at cluster 0) on a random Table 2 grid.
pub fn random_problem(clusters: usize, index: u64) -> BroadcastProblem {
    BroadcastProblem::from_grid(
        &random_grid(clusters, index),
        ClusterId(0),
        MessageSize::from_mib(1),
    )
}
