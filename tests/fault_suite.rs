//! End-to-end fault suite: the storm smoke matrix over three fixed seeds, and
//! the crash-recovery conformance the paper's predictive pitch depends on.
//!
//! Two contracts are pinned here, end to end through the facade crate:
//!
//! * **loud, thread-count-independent storms** — every fault-sweep cell
//!   either completes (finite makespan, zero undelivered edges) or reports
//!   [`Outcome::Incomplete`](gridcast::simulator::Outcome::Incomplete)
//!   explicitly, bit-identically from 1 and N worker threads, and
//! * **recovery beats restart** — for every built-in heuristic, splicing a
//!   repair onto the delivered prefix after a mid-broadcast crash completes
//!   strictly earlier than naively rescheduling the whole broadcast at the
//!   crash instant.

use gridcast::core::{BroadcastProblem, HeuristicKind, ScheduleEngine};
use gridcast::plogp::{MessageSize, Time};
use gridcast::simulator::{
    execute_plan_under_faults, fault_sweep, resplice_after_crash, NodeCrash, NodeNetwork, NullSink,
    RetryPolicy, SendPlan, WhatIfRunner,
};
use gridcast::topology::{grid5000_table3, ClusterId, NodeId};

/// The seeds of the smoke matrix.
const SMOKE_SEEDS: [u64; 3] = [11, 23, 47];

/// Loss rates of the smoke matrix (the acceptance gate covers p ≤ 0.2).
const SMOKE_LOSS_RATES: [f64; 3] = [0.0, 0.1, 0.2];

/// Retry budget of the smoke matrix: ample for the swept loss rates.
fn smoke_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    }
}

#[test]
fn storm_smoke_matrix_is_loud_and_thread_count_independent() {
    let grid = grid5000_table3();
    let runner =
        WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0)).with_retry(smoke_retry());
    for seed in SMOKE_SEEDS {
        let crash_sets = vec![
            Vec::new(),
            vec![NodeCrash {
                node: NodeId(3),
                at: Time::from_millis(5.0),
            }],
        ];
        let scenarios = fault_sweep(seed, &SMOKE_LOSS_RATES, &crash_sets);
        let one = runner.clone().with_threads(1).run(&scenarios);
        let many = runner.clone().with_threads(4).run(&scenarios);
        // A second sweep from the same seeds: fixed seeds pin the runs.
        let again = runner.clone().with_threads(4).run(&scenarios);
        assert_eq!(many, again, "seed {seed}: the sweep does not replay");
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.best, b.best, "seed {seed} cell {}", a.scenario);
            assert_eq!(
                a.simulated.as_secs().to_bits(),
                b.simulated.as_secs().to_bits(),
                "seed {seed}: simulated makespan diverges across thread counts at cell {}",
                a.scenario
            );
            assert_eq!(a.retries, b.retries, "seed {seed} cell {}", a.scenario);
            assert_eq!(
                a.undelivered, b.undelivered,
                "seed {seed} cell {}",
                a.scenario
            );
            assert_eq!(a.events, b.events, "seed {seed} cell {}", a.scenario);
        }
        let mut loss_retries = 0;
        for (report, scenario) in many.iter().zip(&scenarios) {
            assert_eq!(
                report.simulated.is_finite(),
                report.undelivered == 0,
                "seed {seed}: cell {} is not loud (finite={}, undelivered={})",
                report.scenario,
                report.simulated.is_finite(),
                report.undelivered
            );
            let faults = scenario.faults.as_ref().expect("every cell carries faults");
            if faults.crashes.is_empty() {
                assert!(
                    report.simulated.is_finite(),
                    "seed {seed}: crash-free cell {} (loss {}) failed to complete under retries",
                    report.scenario,
                    faults.loss
                );
                loss_retries += report.retries;
            }
        }
        // Crashes force retries too; the loss draws alone must force some.
        assert!(
            loss_retries > 0,
            "seed {seed}: message loss never forced a single retry"
        );
    }
}

/// A faulty replay of one concrete plan is byte-identical per smoke seed:
/// same outcome enum, same reception bit patterns, same fault tallies.
#[test]
fn faulty_execution_replays_byte_identically_per_seed() {
    let grid = grid5000_table3();
    let message = MessageSize::from_mib(1);
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
    let network = NodeNetwork::new(&grid);
    let mut engine = ScheduleEngine::new();
    let schedule = engine.schedule(&problem, HeuristicKind::EcefLaMax);
    let plan = SendPlan::from_grid_schedule(&grid, &schedule);
    for seed in SMOKE_SEEDS {
        let faults = gridcast::simulator::FaultPlan::new(seed)
            .with_loss(0.15)
            .with_duplication(0.1)
            .with_crash(NodeCrash {
                node: NodeId(7),
                at: Time::from_millis(20.0),
            });
        let run = |faults: &gridcast::simulator::FaultPlan| {
            execute_plan_under_faults(
                &network,
                &plan,
                message,
                Time::ZERO,
                faults,
                &smoke_retry(),
                &mut NullSink,
            )
            .expect("the monotone-clock invariant holds under faults")
        };
        let first = run(&faults);
        let second = run(&faults);
        assert_eq!(first, second, "seed {seed}: replay diverged");
        let times = &first.simulation().outcome.receive_times;
        let again = &second.simulation().outcome.receive_times;
        for (a, b) in times.iter().zip(again) {
            assert_eq!(a.as_secs().to_bits(), b.as_secs().to_bits(), "seed {seed}");
        }
    }
}

/// Crash-recovery conformance: for every built-in heuristic, the spliced
/// repair (delivered prefix kept, remainder re-planned around the corpse)
/// completes **strictly earlier** than the naive alternative of restarting
/// the whole broadcast from the root at the crash instant.
#[test]
fn resplice_beats_naive_restart_for_every_heuristic() {
    let grid = grid5000_table3();
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
    let mut engine = ScheduleEngine::new();
    for kind in HeuristicKind::all() {
        let original = engine.schedule(&problem, kind);
        // Crash at the median arrival so real work is both committed (the
        // prefix the splice keeps) and outstanding (the repair to plan).
        let mut arrivals: Vec<Time> = original.events.iter().map(|e| e.arrival).collect();
        arrivals.sort();
        let crash_at = arrivals[arrivals.len() / 2];
        // Prefer a relay (a receiver that forwards) — the interesting crash —
        // and fall back to any non-root receiver for relay-free trees.
        let failed = original
            .events
            .iter()
            .map(|e| e.receiver)
            .find(|&r| original.events.iter().any(|e| e.sender == r))
            .unwrap_or_else(|| {
                original
                    .events
                    .last()
                    .expect("non-trivial schedule")
                    .receiver
            });

        let spliced =
            resplice_after_crash(&mut engine, &problem, &original, kind, failed, crash_at);
        let naive = engine.reschedule_excluding(&problem, kind, failed, &[], crash_at);

        let recovered = spliced.makespan_excluding(failed);
        let restarted = naive.makespan_excluding(failed);
        assert!(recovered.is_finite() && restarted.is_finite(), "{kind}");
        assert!(
            recovered < restarted,
            "{kind}: splice ({recovered}) does not beat restart ({restarted})"
        );
    }
}
