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
//!   crash instant, and
//! * **every fault dimension, bit for bit** — loss, duplication, extra
//!   delay, flaps, capacity windows and crashes (alone and together) are
//!   pinned by FNV-1a digests of each run's whole result: outcome bits,
//!   fault tallies, undelivered edges and the full trace, so a change to any
//!   draw, deferral, gate or same-instant event order moves a digest.

use gridcast::core::{BroadcastProblem, HeuristicKind, ScheduleEngine};
use gridcast::plogp::{MessageSize, Time};
use gridcast::simulator::{
    execute_plan_under_faults, execute_plan_with_sink, fault_sweep, resplice_after_crash,
    CapacityWindow, FaultPlan, LinkFlap, NodeCrash, NodeNetwork, NullSink, Outcome, RetryPolicy,
    SendPlan, TraceEvent, TraceKind, WhatIfRunner,
};
use gridcast::topology::{grid5000_table3, ClusterId, NodeId};
use std::fmt::Write as _;

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

/// The pinned digest of every run of the fault-dimension table: plan, fault
/// configuration, seed, FNV-1a digest. A mismatch prints the regenerated
/// table; re-pin only for a change meant to move a faulty run, and state its
/// cause in the change log.
const FAULT_DIGESTS: &str = "\
binomial loss 11 f9f81465ad221244
binomial loss 23 ff06260b8eca092c
binomial loss 47 9b5535dffe659feb
binomial duplication 11 dd63479b15c1b5fe
binomial duplication 23 83e245d5ea17708e
binomial duplication 47 795064e0f8fd7c87
binomial delay 11 ce376df61b9e6f74
binomial delay 23 2c44d20686084ff7
binomial delay 47 32d41ed41a20321e
binomial flap 11 35bce8d3d80d3543
binomial flap 23 35bce8d3d80d3543
binomial flap 47 35bce8d3d80d3543
binomial capacity 11 36258445dbf0902f
binomial capacity 23 36258445dbf0902f
binomial capacity 47 36258445dbf0902f
binomial crash_at_start 11 f01386c465987637
binomial crash_at_start 23 07323b0052dfb67f
binomial crash_at_start 47 8cb97a293183fbdc
binomial crash_at_arrival 11 0267d6137bc48b0e
binomial crash_at_arrival 23 29c66a470df037d1
binomial crash_at_arrival 47 9a255c3b18a76dcf
binomial crash_at_ghost 11 9eef64e7572a19d4
binomial crash_at_ghost 23 9eef64e7572a19d4
binomial crash_at_ghost 47 9eef64e7572a19d4
binomial all 11 ac213fbef2f14226
binomial all 23 29852e08359edd7b
binomial all 47 2e07000406cb47fa
ecef_lat loss 11 027c71118dd89121
ecef_lat loss 23 ae5d9a18235e65eb
ecef_lat loss 47 ee7c1b8269e55c40
ecef_lat duplication 11 d1d515d1815dff7a
ecef_lat duplication 23 eeca198ee2bee38c
ecef_lat duplication 47 2efd3a72a675aa40
ecef_lat delay 11 92728962b8b7278e
ecef_lat delay 23 8a5873c29a19ac80
ecef_lat delay 47 cc4ae07089e645c6
ecef_lat flap 11 3b052f2586982873
ecef_lat flap 23 3b052f2586982873
ecef_lat flap 47 3b052f2586982873
ecef_lat capacity 11 b80ef71abfa1226f
ecef_lat capacity 23 b80ef71abfa1226f
ecef_lat capacity 47 b80ef71abfa1226f
ecef_lat crash_at_start 11 b1c48ed0a6e1355c
ecef_lat crash_at_start 23 75eb7a24204791db
ecef_lat crash_at_start 47 be8422a90163f637
ecef_lat crash_at_arrival 11 74c7cef0b7fc67f0
ecef_lat crash_at_arrival 23 54274867667573d5
ecef_lat crash_at_arrival 47 18708135b833b80b
ecef_lat crash_at_ghost 11 e0299bcc74c6bba9
ecef_lat crash_at_ghost 23 e0299bcc74c6bba9
ecef_lat crash_at_ghost 47 e0299bcc74c6bba9
ecef_lat all 11 7fe0bc629b93f6d0
ecef_lat all 23 ef1fffb456384678
ecef_lat all 47 3ee6ec8fbf4466c3
";

/// FNV-1a over `bytes`, continuing from the hash state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over one faulty run's whole result: the outcome variant, the
/// completion and every reception time (bits), the message and event
/// counts, the six fault tallies, the undelivered edges and every trace
/// event (kind, time bits, endpoints), each length-prefixed.
fn run_digest(outcome: &Outcome, trace: &[TraceEvent]) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let sim = outcome.simulation();
    words.push(u64::from(!outcome.is_complete()));
    words.push(sim.outcome.completion.as_secs().to_bits());
    words.push(sim.outcome.receive_times.len() as u64);
    words.extend(
        sim.outcome
            .receive_times
            .iter()
            .map(|t| t.as_secs().to_bits()),
    );
    words.push(sim.outcome.messages as u64);
    words.push(sim.outcome.events_processed as u64);
    let s = sim.stats;
    words.extend(
        [
            s.attempts,
            s.lost,
            s.retries,
            s.drops,
            s.duplicates,
            s.crashes,
        ]
        .map(|c| c as u64),
    );
    let undelivered: &[(NodeId, NodeId)] = match outcome {
        Outcome::Complete(_) => &[],
        Outcome::Incomplete { undelivered, .. } => undelivered,
    };
    words.push(undelivered.len() as u64);
    words.extend(
        undelivered
            .iter()
            .map(|&(a, b)| (u64::from(a.0) << 32) | u64::from(b.0)),
    );
    words.push(trace.len() as u64);
    for e in trace {
        let kind = match e.kind {
            TraceKind::SendStart => 0,
            TraceKind::Arrival => 1,
            TraceKind::Retry => 2,
            TraceKind::Drop => 3,
            TraceKind::Crash => 4,
        };
        words.push(kind);
        words.push(e.time.as_secs().to_bits());
        words.push((u64::from(e.from.0) << 32) | u64::from(e.to.0));
    }
    words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// The fault configurations of the digest table: each dimension alone, then
/// all of them together. Every entry names what it pins.
const FAULT_CONFIGS: [&str; 9] = [
    "loss",
    "duplication",
    "delay",
    "flap",
    "capacity",
    "crash_at_start",
    "crash_at_arrival",
    "crash_at_ghost",
    "all",
];

/// Runs every configuration of [`FAULT_CONFIGS`] over one plan and seed,
/// checks that the configuration's dimension actually fired, and appends a
/// digest line per run to `table`.
fn digest_plan(table: &mut String, name: &str, grid: &gridcast::topology::Grid, plan: &SendPlan) {
    let network = NodeNetwork::new(grid);
    let message = MessageSize::from_mib(1);
    let cluster: Vec<ClusterId> = grid.enumerate_nodes().iter().map(|n| n.cluster).collect();
    // A non-zero start: every window and crash below is placed relative to
    // it, and the crash marks and initial attempts tie at it.
    let start = Time::from_millis(3.0);
    let mut clean_trace = Vec::new();
    let clean = execute_plan_with_sink(&network, plan, message, start, &mut clean_trace);
    let source = plan.source;
    // The source's first wide-area send: the flap and the capacity window sit
    // on its link, so both move a transmission the run really makes.
    let wan_to = plan.forwards[source.index()]
        .iter()
        .copied()
        .find(|to| cluster[to.index()] != cluster[source.index()])
        .expect("the source sends across the wide area");
    let (src_cluster, dst_cluster) = (cluster[source.index()], cluster[wan_to.index()]);
    let wan_start = clean_trace
        .iter()
        .find(|e| e.kind == TraceKind::SendStart && e.from == source && e.to == wan_to)
        .expect("the clean run makes that send")
        .time;
    let flap = LinkFlap {
        between: (src_cluster, dst_cluster),
        from: wan_start,
        until: wan_start + Time::from_millis(25.0),
    };
    let window = CapacityWindow {
        from: src_cluster,
        to: dst_cluster,
        factor: 3.0,
        from_time: wan_start,
        until: wan_start + Time::from_millis(40.0),
    };
    // A relay (a non-source machine that forwards) dies at the start instant.
    let relay = (0..plan.num_nodes())
        .find(|&i| i != source.index() && !plan.forwards[i].is_empty())
        .map(|i| NodeId(i as u32))
        .expect("the plan has a relay");
    let at_start = NodeCrash {
        node: relay,
        at: start,
    };
    // The source's last receiver dies exactly when its copy would land: the
    // tie of the send-time check (a copy arriving at the crash instant is
    // lost, so the sender retries into the void).
    let last = *plan.forwards[source.index()]
        .last()
        .expect("the source sends");
    let at_arrival = NodeCrash {
        node: last,
        at: clean.receive_time(last),
    };
    // The source's first receiver dies exactly when the ghost copy of its
    // first delivery lands (one extra latency after the original): the
    // same tie of the reception-time check.
    let first = plan.forwards[source.index()][0];
    let at_ghost = NodeCrash {
        node: first,
        at: clean.receive_time(first) + network.latency(source, first),
    };
    let tight = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    for config in FAULT_CONFIGS {
        for seed in SMOKE_SEEDS {
            let base = FaultPlan::new(seed);
            let (faults, retry) = match config {
                "loss" => (base.with_loss(0.35), tight),
                "duplication" => (base.with_duplication(0.5), RetryPolicy::default()),
                "delay" => (
                    base.with_extra_delay(0.5, Time::from_millis(4.0)),
                    RetryPolicy::default(),
                ),
                "flap" => (base.with_flap(flap), RetryPolicy::default()),
                "capacity" => (base.with_capacity_window(window), RetryPolicy::default()),
                "crash_at_start" => (base.with_crash(at_start), RetryPolicy::default()),
                "crash_at_arrival" => (base.with_crash(at_arrival), RetryPolicy::default()),
                "crash_at_ghost" => (
                    base.with_duplication(1.0).with_crash(at_ghost),
                    RetryPolicy::default(),
                ),
                "all" => (
                    base.with_loss(0.2)
                        .with_duplication(0.3)
                        .with_extra_delay(0.3, Time::from_millis(3.0))
                        .with_flap(flap)
                        .with_capacity_window(window)
                        .with_crash(at_start)
                        .with_crash(at_arrival)
                        .with_crash(at_ghost),
                    RetryPolicy {
                        max_attempts: 3,
                        ..RetryPolicy::default()
                    },
                ),
                other => unreachable!("unknown fault configuration {other}"),
            };
            let mut trace = Vec::new();
            let outcome = execute_plan_under_faults(
                &network, plan, message, start, &faults, &retry, &mut trace,
            )
            .expect("the monotone-clock invariant holds under faults");
            let sim = outcome.simulation();
            let moved = sim.outcome.receive_times != clean.receive_times;
            let copies = |t: &[TraceEvent], to: NodeId| {
                t.iter()
                    .filter(|e| e.kind == TraceKind::Arrival && e.to == to)
                    .count()
            };
            let fired = match config {
                "loss" => sim.stats.retries > 0 && sim.stats.drops > 0,
                "duplication" => sim.stats.duplicates > 0,
                "delay" | "flap" | "capacity" => moved,
                "crash_at_start" => {
                    trace[0].kind == TraceKind::Crash && trace[0].time == start && moved
                }
                // No copy lands; the sender's retries are lost too.
                "crash_at_arrival" => copies(&trace, last) == 0 && sim.stats.lost > 1,
                // The original lands, its ghost dies with the machine.
                "crash_at_ghost" => copies(&trace, first) == 1 && moved,
                _ => moved && sim.stats.crashes == 3,
            };
            assert!(
                fired,
                "{name} {config} seed {seed}: the dimension never fired"
            );
            let _ = writeln!(
                table,
                "{name} {config} {seed} {:016x}",
                run_digest(&outcome, &trace)
            );
        }
    }
}

/// Every fault dimension, alone and together, three seeds each, on the
/// grid-unaware binomial plan and on an ECEF-LAT plan, pinned bit for bit.
#[test]
fn every_fault_dimension_is_pinned_bit_for_bit() {
    let grid = grid5000_table3();
    let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
    let schedule = ScheduleEngine::new().schedule(&problem, HeuristicKind::EcefLaMax);
    let mut table = String::new();
    digest_plan(
        &mut table,
        "binomial",
        &grid,
        &SendPlan::binomial_over_all_nodes(&grid, ClusterId(0)),
    );
    digest_plan(
        &mut table,
        "ecef_lat",
        &grid,
        &SendPlan::from_grid_schedule(&grid, &schedule),
    );
    assert!(
        table == FAULT_DIGESTS,
        "fault digests moved; regenerated FAULT_DIGESTS:\n{table}"
    );
}
