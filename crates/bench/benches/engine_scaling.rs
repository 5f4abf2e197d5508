//! Scaling of the batched `ScheduleEngine::schedule_all` entry point.
//!
//! Times the full seven-heuristic batch from 10 up to 1000 clusters to pin the
//! engine's sub-cubic (`O(n² log n)`) growth — the seed's per-heuristic round
//! loops were `O(n³)` and worse with lookahead, and the first engine still
//! carried a super-quadratic rescan term that the k-best candidate cache now
//! amortises away. Besides the criterion report, the bench writes
//! `BENCH_engine_scaling.json` at the workspace root (schema documented in
//! `gridcast_bench`'s crate docs) with batch and per-heuristic medians, the
//! engine's cache telemetry, and the least-squares growth exponent — and
//! fails loudly if that exponent leaves the `n^2.08` envelope, (under
//! `ENGINE_SCALING_BASELINE_GATE=1`) if the 200-cluster median regresses more
//! than 15% against the committed report, or (under `ENGINE_BATCH_GATE=1`, or
//! `=<millis>` for a custom floor) if the 1000-cluster seven-heuristic batch
//! median exceeds the 100 ms absolute-time floor.
//!
//! The report also carries the **K probe**: the candidate-row width K is a
//! pure performance knob (schedules are byte-identical for any K ≥ 1, pinned
//! by the core's parity test and the root `proptest_invariants` parity
//! proptest), so the sweep runs one batch per K ∈ {2, 4, 8, 16, 32} at 500
//! and 1000 clusters through `ScheduleEngine::with_k_best` and records each
//! width's repair rate, rescan count and wall time under `k_best_probe` —
//! the evidence behind the one default width, `DEFAULT_K_BEST`, which every
//! point records as `k_best`.
//!
//! Under `ENGINE_SCALING_FRONTIER=1` the report additionally measures a
//! 10 000-cluster frontier point (grid generation plus one seven-heuristic
//! batch — several minutes); without the variable the previously committed
//! frontier block is carried over verbatim so regenerating the report never
//! silently drops it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gridcast_bench::random_problem;
use gridcast_core::{EngineTelemetry, HeuristicKind, ScheduleEngine, DEFAULT_K_BEST};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 6] = [10, 50, 100, 200, 500, 1000];

/// Cluster count from which criterion takes fewer samples per point.
const LARGE_FROM: usize = 500;

/// The exponent gate: a least-squares fit of `log t` over `log n` must stay
/// below this for the full sweep. The per-policy K tables plus the bucketed
/// rescan index measure ~2.04 on these sizes (the tail's remaining walk is
/// memory-bound, so the fit sits just above 2 even with the rescan counts
/// down ~37%); 2.08 leaves noise headroom while still failing any
/// reintroduced super-quadratic rescan term, which lands ≥2.15.
const MAX_FITTED_EXPONENT: f64 = 2.08;

/// Absolute-time floor (milliseconds) for the 1000-cluster seven-heuristic
/// batch median when `ENGINE_BATCH_GATE` is armed without a custom value.
/// Wall-clock floors are machine-dependent, so the gate stays env-armed like
/// the baseline gate instead of running unconditionally. 100 ms is the
/// target the raw-speed ladder is driving towards; the dev container
/// currently measures ~130–150 ms (the remaining cost is the rescan walk's
/// memory-bound edge pricing, not bookkeeping), so CI arms the gate with an
/// explicit calibrated value instead of the default.
const DEFAULT_BATCH_GATE_MILLIS: f64 = 100.0;

/// Maximum tolerated regression of the 200-cluster median vs the committed
/// baseline JSON when the baseline gate is enabled.
const MAX_BASELINE_REGRESSION: f64 = 1.15;

/// Candidate-row widths swept by the K probe. The small widths are the
/// interesting ones: the default is 2 (`DEFAULT_K_BEST`), and the wide rows
/// document what the extra repair rate costs in row maintenance.
const K_PROBE_WIDTHS: [usize; 5] = [2, 4, 8, 16, 32];

/// Cluster counts the K probe measures (where the repair rate
/// actually degrades; see the committed telemetry).
const K_PROBE_SIZES: [usize; 2] = [500, 1000];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    let kinds = HeuristicKind::all();
    for clusters in SIZES {
        let problem = random_problem(clusters, 0);
        let mut engine = ScheduleEngine::new();
        let mut out = Vec::new();
        group.sample_size(if clusters >= LARGE_FROM { 5 } else { 10 });
        group.throughput(Throughput::Elements(clusters as u64));
        group.bench_with_input(
            BenchmarkId::new("schedule_all", clusters),
            &problem,
            |b, problem| {
                b.iter(|| {
                    engine.schedule_all_into(black_box(problem), &kinds, &mut out);
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();

    report_scaling();
}

/// Median of `samples` timed repetitions of `f`, in nanoseconds per call.
fn median_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / reps as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

struct Point {
    clusters: usize,
    median_ns: f64,
    per_heuristic_ns: Vec<(&'static str, f64)>,
    telemetry: EngineTelemetry,
}

/// Direct wall-clock measurement feeding `BENCH_engine_scaling.json` and the
/// growth gates (independent of the criterion plumbing).
fn report_scaling() {
    let kinds = HeuristicKind::all();
    let mut engine = ScheduleEngine::new();
    let mut out = Vec::new();

    // Batched medians are sampled round-robin across the sizes (not one size
    // after another), and every sample is repetition-sized to a comparable
    // wall-clock duration. Both choices de-bias the growth factors the gates
    // below assert on: round-robin spreads slow machine drift (thermal
    // throttling, noisy neighbours) evenly over the sizes, and equal-duration
    // samples absorb background contamination at the same *rate* everywhere —
    // otherwise the longest-running size soaks up the most noise and its
    // ratio to the previous size is systematically inflated.
    const SAMPLE_TARGET_SECS: f64 = 0.2;
    let problems: Vec<_> = SIZES.map(|clusters| random_problem(clusters, 0)).into();
    let mut batch_samples: Vec<Vec<f64>> = vec![Vec::new(); SIZES.len()];
    let mut batch_reps: Vec<usize> = Vec::new();
    for problem in &problems {
        // Warm buffers and size each sample's repetition count.
        engine.schedule_all_into(problem, &kinds, &mut out);
        let start = Instant::now();
        engine.schedule_all_into(problem, &kinds, &mut out);
        let one = start.elapsed().as_secs_f64().max(1e-9);
        batch_reps.push(((SAMPLE_TARGET_SECS / one) as usize).clamp(1, 100_000));
    }
    for _ in 0..9 {
        for (i, problem) in problems.iter().enumerate() {
            let reps = batch_reps[i];
            let start = Instant::now();
            for _ in 0..reps {
                engine.schedule_all_into(black_box(problem), &kinds, &mut out);
            }
            batch_samples[i].push(start.elapsed().as_secs_f64() * 1e9 / reps as f64);
        }
    }
    let reps_for = |clusters: usize| (2_000 / clusters).max(2);

    let mut points: Vec<Point> = Vec::new();
    for (i, clusters) in SIZES.into_iter().enumerate() {
        let problem = &problems[i];
        let reps = reps_for(clusters);
        let batch = {
            let samples = &mut batch_samples[i];
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            samples[samples.len() / 2]
        };
        // One clean batch for the telemetry deltas.
        engine.take_telemetry();
        engine.schedule_all_into(problem, &kinds, &mut out);
        let telemetry = engine.take_telemetry();
        // Per-heuristic medians over the allocation-free makespan path.
        let per_heuristic_ns = kinds
            .iter()
            .map(|&kind| {
                let _ = engine.makespan(problem, kind);
                let ns = median_ns(5, reps, || {
                    black_box(engine.makespan(black_box(problem), kind));
                });
                (kind.name(), ns)
            })
            .collect();
        let point = Point {
            clusters,
            median_ns: batch,
            per_heuristic_ns,
            telemetry,
        };
        let growth = points
            .last()
            .map(|prev| batch / prev.median_ns)
            .unwrap_or(1.0);
        println!(
            "engine_scaling: {clusters:>4} clusters -> {batch:>12.0} ns/batch (x{growth:.2}) \
             repair_rate={:.3} rescans={}",
            point.telemetry.repair_rate(),
            point.telemetry.rescans
        );
        points.push(point);
    }

    let exponent = fitted_exponent(&points);
    println!("engine_scaling: least-squares growth exponent {exponent:.3}");

    let probe = k_best_probe(&problems);
    let baseline_200 = read_baseline_median(200);
    let frontier = if std::env::var_os("ENGINE_SCALING_FRONTIER").is_some() {
        Some(measure_frontier())
    } else {
        read_frontier_block()
    };
    write_report(&points, exponent, &probe, frontier.as_deref());

    assert!(
        exponent < MAX_FITTED_EXPONENT,
        "schedule_all growth exponent {exponent:.3} exceeds {MAX_FITTED_EXPONENT} \
         (super-quadratic rescan term is back?)"
    );
    if let Some(armed) = std::env::var("ENGINE_BATCH_GATE").ok().filter(|v| v != "0") {
        // `ENGINE_BATCH_GATE=1` arms the default floor; any other value is a
        // custom floor in milliseconds.
        let gate_ms: f64 = match armed.parse() {
            Ok(ms) if armed != "1" => ms,
            _ => DEFAULT_BATCH_GATE_MILLIS,
        };
        let current_ms = points
            .iter()
            .find(|p| p.clusters == 1000)
            .expect("1000-cluster point is always measured")
            .median_ns
            / 1e6;
        println!(
            "engine_scaling: 1000-cluster batch median {current_ms:.1} ms \
             (gate: {gate_ms:.0} ms)"
        );
        assert!(
            current_ms <= gate_ms,
            "1000-cluster seven-heuristic batch median {current_ms:.1} ms \
             exceeds the {gate_ms:.0} ms ENGINE_BATCH_GATE floor"
        );
    }
    if std::env::var_os("ENGINE_SCALING_BASELINE_GATE").is_some() {
        let current = points
            .iter()
            .find(|p| p.clusters == 200)
            .expect("200-cluster point is always measured")
            .median_ns;
        if let Some(baseline) = baseline_200 {
            assert!(
                current <= baseline * MAX_BASELINE_REGRESSION,
                "200-cluster median {current:.0} ns regressed more than \
                 {:.0}% vs committed baseline {baseline:.0} ns",
                (MAX_BASELINE_REGRESSION - 1.0) * 100.0
            );
        } else {
            println!("engine_scaling: no committed baseline found; skipping regression gate");
        }
    }
}

/// One measurement of the K probe: a full seven-heuristic batch run
/// with candidate rows of width `k`.
struct KProbePoint {
    clusters: usize,
    k: usize,
    batch_ns: f64,
    telemetry: EngineTelemetry,
}

/// Runs one warmed batch per (cluster count, K) pair and collects its
/// telemetry delta and wall time. Schedules are byte-identical across K (the
/// core's parity test pins it); only the repair/rescan split moves.
fn k_best_probe(problems: &[gridcast_core::BroadcastProblem]) -> Vec<KProbePoint> {
    let kinds = HeuristicKind::all();
    let mut out = Vec::new();
    for &clusters in &K_PROBE_SIZES {
        let problem = problems
            .iter()
            .zip(SIZES)
            .find(|&(_, size)| size == clusters)
            .map(|(p, _)| p)
            .expect("probe sizes are a subset of the sweep sizes");
        for &k in &K_PROBE_WIDTHS {
            let mut engine = ScheduleEngine::with_k_best(k);
            let mut schedules = Vec::new();
            // Warm the buffers, then measure one clean batch.
            engine.schedule_all_into(problem, &kinds, &mut schedules);
            engine.take_telemetry();
            let start = Instant::now();
            engine.schedule_all_into(black_box(problem), &kinds, &mut schedules);
            let batch_ns = start.elapsed().as_secs_f64() * 1e9;
            let telemetry = engine.take_telemetry();
            println!(
                "engine_scaling: K probe {clusters:>4} clusters K={k:<2} -> \
                 repair_rate={:.3} rescans={} ({batch_ns:>12.0} ns/batch)",
                telemetry.repair_rate(),
                telemetry.rescans
            );
            out.push(KProbePoint {
                clusters,
                k,
                batch_ns,
                telemetry,
            });
        }
    }
    out
}

/// Least-squares slope of `log(median_ns)` over `log(clusters)` — the growth
/// exponent of the whole sweep. Pairwise ratios are noisy at small `n` (a
/// single slow sample doubles a ratio); the fit uses every point at once.
fn fitted_exponent(points: &[Point]) -> f64 {
    let n = points.len() as f64;
    let xs = points.iter().map(|p| (p.clusters as f64).ln());
    let ys = points.iter().map(|p| p.median_ns.ln());
    let mean_x: f64 = xs.clone().sum::<f64>() / n;
    let mean_y: f64 = ys.clone().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (x, y) in xs.zip(ys) {
        cov += (x - mean_x) * (y - mean_y);
        var += (x - mean_x) * (x - mean_x);
    }
    cov / var
}

/// Path of the JSON report, anchored at the workspace root regardless of the
/// bench invocation directory.
fn report_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine_scaling.json"
    )
}

/// The committed `median_ns` for one cluster count, scraped from the previous
/// report before it is overwritten (tiny hand parser — the offline vendored
/// serde_json has no deserializer).
fn read_baseline_median(clusters: usize) -> Option<f64> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let marker = format!("\"clusters\": {clusters},");
    let at = text.find(&marker)?;
    let rest = &text[at..];
    let med = rest.find("\"median_ns\":")?;
    let tail = rest[med + "\"median_ns\":".len()..].trim_start();
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Measures the 10 000-cluster frontier point: grid-generation wall time and
/// one full seven-heuristic batch, plus each heuristic's predicted broadcast
/// makespan at that scale. Several minutes of wall clock (generation alone is
/// ~4.5 minutes), so it only runs under `ENGINE_SCALING_FRONTIER=1`; the
/// returned string is the pre-formatted JSON block `write_report` embeds.
fn measure_frontier() -> String {
    const FRONTIER_CLUSTERS: usize = 10_000;
    println!(
        "engine_scaling: measuring the {FRONTIER_CLUSTERS}-cluster frontier \
         point (several minutes)..."
    );
    let kinds = HeuristicKind::all();
    let start = Instant::now();
    let problem = random_problem(FRONTIER_CLUSTERS, 0);
    let generate_secs = start.elapsed().as_secs_f64();
    println!("engine_scaling: frontier grid generated in {generate_secs:.1} s");
    let mut engine = ScheduleEngine::new();
    let mut out = Vec::new();
    engine.take_telemetry();
    let start = Instant::now();
    engine.schedule_all_into(black_box(&problem), &kinds, &mut out);
    let batch_secs = start.elapsed().as_secs_f64();
    let telemetry = engine.take_telemetry();
    println!("engine_scaling: frontier seven-heuristic batch in {batch_secs:.1} s");

    let mut block = String::new();
    block.push_str("  \"frontier\": {\n");
    let _ = writeln!(
        block,
        "    \"clusters\": {FRONTIER_CLUSTERS}, \"k_best\": {DEFAULT_K_BEST}, \
         \"generate_secs\": {generate_secs:.2}, \"batch_secs\": {batch_secs:.2},"
    );
    let _ = writeln!(
        block,
        "    \"rescans\": {}, \"walked_senders\": {}, \"bucket_skips\": {}, \
         \"repair_rate\": {:.3},",
        telemetry.rescans,
        telemetry.walked_senders,
        telemetry.bucket_skips,
        telemetry.repair_rate()
    );
    block.push_str("    \"predicted_makespan_secs\": {");
    for (i, (kind, schedule)) in kinds.iter().zip(&out).enumerate() {
        let _ = write!(
            block,
            "{}\"{}\": {:.2}",
            if i == 0 { "" } else { ", " },
            kind.name(),
            schedule.makespan().as_secs()
        );
    }
    block.push_str("}\n  }");
    block
}

/// Carries the committed frontier block over verbatim when the bench runs
/// without `ENGINE_SCALING_FRONTIER=1`, so regenerating the report never
/// silently drops the expensive measurement (hand scraper, like
/// `read_baseline_median`).
fn read_frontier_block() -> Option<String> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    let at = text.find("  \"frontier\": {")?;
    let close = "\n  }";
    let end = text[at..].find(close)? + close.len();
    Some(text[at..at + end].to_string())
}

fn write_report(points: &[Point], exponent: f64, probe: &[KProbePoint], frontier: Option<&str>) {
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"engine_scaling\",\n");
    json.push_str("  \"unit\": \"ns per schedule_all (7 heuristics)\",\n");
    let _ = writeln!(json, "  \"fitted_exponent\": {exponent:.3},");
    json.push_str("  \"points\": [\n");
    for (i, point) in points.iter().enumerate() {
        let growth = if i == 0 {
            1.0
        } else {
            point.median_ns / points[i - 1].median_ns
        };
        let _ = write!(
            json,
            "    {{\"clusters\": {}, \"k_best\": {DEFAULT_K_BEST}, \"median_ns\": {:.0}, \
             \"growth_vs_prev\": {:.2}",
            point.clusters, point.median_ns, growth
        );
        json.push_str(",\n     \"per_heuristic_median_ns\": {");
        for (k, (name, ns)) in point.per_heuristic_ns.iter().enumerate() {
            let _ = write!(
                json,
                "{}\"{name}\": {ns:.0}",
                if k == 0 { "" } else { ", " }
            );
        }
        json.push_str("},\n");
        let t = &point.telemetry;
        let _ = writeln!(
            json,
            "     \"telemetry\": {{\"rounds\": {}, \"invalidations\": {}, \
             \"second_best_hits\": {}, \"promotions\": {}, \"rescans\": {}, \
             \"walked_senders\": {}, \"bucket_skips\": {}, \"repair_rate\": {:.3}}}}}{}",
            t.rounds,
            t.invalidations,
            t.second_best_hits,
            t.promotions,
            t.rescans,
            t.walked_senders,
            t.bucket_skips,
            t.repair_rate(),
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    if let Some(frontier) = frontier {
        json.push_str(frontier);
        json.push_str(",\n");
    }
    json.push_str("  \"k_best_probe\": [\n");
    for (i, p) in probe.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"clusters\": {}, \"k\": {}, \"batch_ns\": {:.0}, \
             \"repair_rate\": {:.3}, \"rescans\": {}, \"walked_senders\": {}, \
             \"bucket_skips\": {}}}{}",
            p.clusters,
            p.k,
            p.batch_ns,
            p.telemetry.repair_rate(),
            p.telemetry.rescans,
            p.telemetry.walked_senders,
            p.telemetry.bucket_skips,
            if i + 1 == probe.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    // Atomic replace: write a sibling tmp file, then rename into place, so an
    // interrupted bench never leaves a torn report.
    let path = report_path();
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = result {
        eprintln!("engine_scaling: could not write {path}: {e}");
    }
}

criterion_group! {
    name = benches;
    config = gridcast_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
