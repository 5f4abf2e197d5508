//! Throughput of the concurrent what-if runner — and its determinism gates.
//!
//! The paper's pitch is *predictive*: evaluate many candidate worlds, pick
//! the best schedule before paying for it. This bench drives
//! [`WhatIfRunner`] through `SCENARIOS` perturbed scenarios (scaled link
//! capacities, degraded uplinks/links/sites, capacity windows, alternate
//! roots, dropped relay candidates) of a 100-cluster Table-2 grid — every
//! scenario a full predict-all-heuristics → pick-best → execute-node-level
//! loop over the unified discrete-event core — once on a single worker and
//! once on `max(available cores, 2)` workers (never a "parallel" leg with
//! one thread, even on a single-core machine).
//!
//! It is also the **check mode** CI runs:
//!
//! * the single-thread and parallel sweeps must be bit-identical report for
//!   report (the work-claiming pool returns the reports in scenario order
//!   whatever the worker count), and every winning schedule must simulate to
//!   a finite completion;
//! * the **warm-start gate**: a warm sweep (baseline commit logs replayed
//!   under each scenario's delta) must be bit-identical to the cold sweep —
//!   asserted on every run, for the full mix and for the single-link batch;
//! * the warm-start **speedup floor**: with `WHATIF_WARM_SPEEDUP_GATE` set
//!   in the environment, the per-scenario speedup of the warm runner over
//!   the cold runner on the single-link batch must clear
//!   `WHATIF_WARM_SPEEDUP_FLOOR` (default 3×).
//!
//! Throughput, the warm speedup and the replay telemetry (replayed /
//! repaired / recomputed commits) land in `BENCH_whatif.json` at the
//! workspace root (written atomically), alongside the winner distribution —
//! the quickest sanity check that the perturbations actually move the
//! decision.

use gridcast_bench::random_grid;
use gridcast_core::HeuristicKind;
use gridcast_plogp::{MessageSize, Time};
use gridcast_simulator::{Perturbation, Scenario, WarmStartTelemetry, WhatIfReport, WhatIfRunner};
use gridcast_topology::ClusterId;
use std::fmt::Write as _;
use std::time::Instant;

/// Cluster count of the benched grid (the scale the acceptance gate names).
const CLUSTERS: usize = 100;

/// Number of perturbed scenarios per sweep.
const SCENARIOS: usize = 1000;

/// Number of single-link perturbations in the warm-start speedup batch. The
/// batch is homogeneous (every scenario one `DegradeLink`), so the mean
/// per-scenario speedup the timer yields coincides with the median up to
/// scheduler noise.
const WARM_SCENARIOS: usize = 400;

/// The deterministic scenario mix: baseline, grid-wide scaling, degraded
/// uplinks, alternate roots, dropped relays, single degraded links,
/// correlated site degradations and time-varying capacity windows in equal
/// parts, parameters varied by index.
fn scenario_mix(clusters: usize, count: usize) -> Vec<Scenario> {
    (0..count)
        .map(|i| match i % 8 {
            0 => Scenario::baseline(),
            1 => Scenario::one(Perturbation::ScaleAllLinks {
                factor: 0.5 + 0.125 * (i % 16) as f64,
            }),
            2 => Scenario::one(Perturbation::DegradeUplink {
                cluster: ClusterId(i % clusters),
                factor: 2.0 + (i % 7) as f64,
            }),
            3 => Scenario::one(Perturbation::AlternateRoot {
                root: ClusterId(i % clusters),
            }),
            4 => Scenario::one(Perturbation::DropRelay {
                cluster: ClusterId(1 + i % (clusters - 1)),
            }),
            5 => Scenario::one(Perturbation::DegradeLink {
                from: ClusterId(i % clusters),
                to: ClusterId((i % clusters + 1) % clusters),
                factor: 2.0 + (i % 5) as f64,
            }),
            6 => Scenario::one(Perturbation::DegradeSite {
                first: ClusterId(i % clusters),
                span: 1 + i % 4,
                factor: 2.5,
            }),
            _ => Scenario::one(Perturbation::TimeVaryingCapacity {
                from: ClusterId(i % clusters),
                to: ClusterId((i % clusters + 2) % clusters),
                factor: 4.0,
                from_time: Time::ZERO,
                until: Time::from_millis(500.0),
            }),
        })
        .collect()
}

/// The acceptance gate's batch: one perturbed link per scenario.
fn single_link_batch(clusters: usize, count: usize) -> Vec<Scenario> {
    (0..count)
        .map(|i| {
            let from = i % clusters;
            Scenario::one(Perturbation::DegradeLink {
                from: ClusterId(from),
                to: ClusterId((from + 1 + i / clusters) % clusters),
                factor: 1.25 + 0.25 * (i % 12) as f64,
            })
        })
        .collect()
}

fn assert_bit_identical(label: &str, a: &[WhatIfReport], b: &[WhatIfReport]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.scenario, y.scenario);
        assert_eq!(
            x.best, y.best,
            "{label}: winner diverges at scenario {}",
            x.scenario
        );
        assert_eq!(x.events, y.events);
        let bits: fn(Time) -> u64 = |t| t.as_secs().to_bits();
        assert!(
            x.makespans
                .iter()
                .zip(&y.makespans)
                .all(|(p, q)| bits(*p) == bits(*q)),
            "{label}: predicted makespans diverge at scenario {}",
            x.scenario
        );
        assert_eq!(
            bits(x.predicted),
            bits(y.predicted),
            "{label}: prediction diverges at scenario {}",
            x.scenario
        );
        assert_eq!(
            bits(x.simulated),
            bits(y.simulated),
            "{label}: simulation diverges at scenario {}",
            x.scenario
        );
        assert_eq!(x.retries, y.retries);
        assert_eq!(x.undelivered, y.undelivered);
    }
}

fn main() {
    let grid = random_grid(CLUSTERS, 0);
    let scenarios = scenario_mix(CLUSTERS, SCENARIOS);
    let message = MessageSize::from_mib(1);
    let runner = WhatIfRunner::new(&grid, message, ClusterId(0));
    // Never a one-worker "parallel" leg: on a single-core machine the sweep
    // still runs with two workers and the report records that honestly.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let start = Instant::now();
    let sequential = runner.clone().with_threads(1).run(&scenarios);
    let single_elapsed = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = runner.clone().with_threads(threads).run(&scenarios);
    let parallel_elapsed = start.elapsed().as_secs_f64();

    // Check mode: bit-identical across worker-thread counts, every winner
    // executable.
    assert_bit_identical("threads", &sequential, &parallel);
    for report in &parallel {
        assert!(
            report.simulated.is_finite(),
            "scenario {} simulated to an infinite completion",
            report.scenario
        );
    }

    // Warm-start gate, part one: the warm sweep of the full mix (replay
    // where eligible, cold fallback elsewhere) is bit-identical to cold.
    let start = Instant::now();
    let (warm_mix, mix_telemetry) = runner
        .clone()
        .with_warm_start(true)
        .with_threads(1)
        .run_with_telemetry(&scenarios);
    let warm_mix_elapsed = start.elapsed().as_secs_f64();
    assert_bit_identical("warm mix", &sequential, &warm_mix);

    // Warm-start gate, part two: the single-link batch the acceptance
    // criterion names, timed cold then warm on one worker each.
    let single_link = single_link_batch(CLUSTERS, WARM_SCENARIOS);
    let start = Instant::now();
    let cold_links = runner.clone().with_threads(1).run(&single_link);
    let cold_links_elapsed = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (warm_links, link_telemetry) = runner
        .clone()
        .with_warm_start(true)
        .with_threads(1)
        .run_with_telemetry(&single_link);
    let warm_links_elapsed = start.elapsed().as_secs_f64();
    assert_bit_identical("warm single-link", &cold_links, &warm_links);
    let warm_speedup = cold_links_elapsed / warm_links_elapsed;

    if std::env::var_os("WHATIF_WARM_SPEEDUP_GATE").is_some() {
        let floor: f64 = std::env::var("WHATIF_WARM_SPEEDUP_FLOOR")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3.0);
        assert!(
            warm_speedup >= floor,
            "warm-start speedup {warm_speedup:.2}x on single-link perturbations \
             is below the {floor:.1}x floor"
        );
    }

    let single_rate = SCENARIOS as f64 / single_elapsed;
    let parallel_rate = SCENARIOS as f64 / parallel_elapsed;
    let warm_mix_rate = SCENARIOS as f64 / warm_mix_elapsed;
    println!(
        "whatif: {SCENARIOS} scenarios on {CLUSTERS} clusters -> \
         {single_rate:.1}/s on 1 thread, {parallel_rate:.1}/s on {threads} threads, \
         {warm_mix_rate:.1}/s warm (bit-identical); \
         warm single-link speedup {warm_speedup:.2}x over {WARM_SCENARIOS} scenarios"
    );

    let mut winners: Vec<(&'static str, usize)> =
        HeuristicKind::all().iter().map(|k| (k.name(), 0)).collect();
    for report in &parallel {
        let slot = winners
            .iter_mut()
            .find(|(name, _)| *name == report.best.name())
            .expect("winner is one of the candidates");
        slot.1 += 1;
    }

    write_report(&Report {
        threads,
        single_elapsed,
        parallel_elapsed,
        single_rate,
        parallel_rate,
        warm_mix_elapsed,
        warm_mix_rate,
        mix_telemetry,
        cold_links_elapsed,
        warm_links_elapsed,
        warm_speedup,
        link_telemetry,
        winners: &winners,
    });
}

struct Report<'a> {
    threads: usize,
    single_elapsed: f64,
    parallel_elapsed: f64,
    single_rate: f64,
    parallel_rate: f64,
    warm_mix_elapsed: f64,
    warm_mix_rate: f64,
    mix_telemetry: WarmStartTelemetry,
    cold_links_elapsed: f64,
    warm_links_elapsed: f64,
    warm_speedup: f64,
    link_telemetry: WarmStartTelemetry,
    winners: &'a [(&'static str, usize)],
}

/// Path of the JSON report, anchored at the workspace root regardless of the
/// bench invocation directory.
fn report_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_whatif.json")
}

fn write_report(r: &Report<'_>) {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"whatif\",\n");
    json.push_str("  \"unit\": \"scenarios per second (predict 7 heuristics + execute best)\",\n");
    let _ = writeln!(json, "  \"clusters\": {CLUSTERS},");
    let _ = writeln!(json, "  \"scenarios\": {SCENARIOS},");
    let _ = writeln!(
        json,
        "  \"single_thread\": {{\"elapsed_s\": {:.3}, \"scenarios_per_sec\": {:.1}}},",
        r.single_elapsed, r.single_rate
    );
    let _ = writeln!(
        json,
        "  \"parallel\": {{\"threads\": {}, \"elapsed_s\": {:.3}, \
         \"scenarios_per_sec\": {:.1}, \"speedup\": {:.2}}},",
        r.threads,
        r.parallel_elapsed,
        r.parallel_rate,
        r.single_elapsed / r.parallel_elapsed
    );
    let telemetry = |t: &WarmStartTelemetry| {
        format!(
            "{{\"replayed_commits\": {}, \"repaired_commits\": {}, \"recomputed_commits\": {}}}",
            t.replayed_commits, t.repaired_commits, t.recomputed_commits
        )
    };
    let _ = writeln!(
        json,
        "  \"warm_mix\": {{\"elapsed_s\": {:.3}, \"scenarios_per_sec\": {:.1}, \
         \"telemetry\": {}}},",
        r.warm_mix_elapsed,
        r.warm_mix_rate,
        telemetry(&r.mix_telemetry)
    );
    let _ = writeln!(
        json,
        "  \"warm_single_link\": {{\"scenarios\": {WARM_SCENARIOS}, \
         \"cold_elapsed_s\": {:.3}, \"warm_elapsed_s\": {:.3}, \
         \"per_scenario_speedup\": {:.2}, \"telemetry\": {}}},",
        r.cold_links_elapsed,
        r.warm_links_elapsed,
        r.warm_speedup,
        telemetry(&r.link_telemetry)
    );
    let _ = writeln!(json, "  \"bit_identical_across_thread_counts\": true,");
    let _ = writeln!(json, "  \"warm_start_bit_identical_to_cold\": true,");
    json.push_str("  \"winners\": {");
    for (i, (name, count)) in r.winners.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{name}\": {count}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}\n}\n");

    // Atomic replace: write a sibling tmp file, then rename into place, so an
    // interrupted bench never leaves a torn report.
    let path = report_path();
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = result {
        eprintln!("whatif: could not write {path}: {e}");
    }
}
