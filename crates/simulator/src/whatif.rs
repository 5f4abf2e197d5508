//! Concurrent what-if evaluation: thousands of perturbed scenarios against
//! one shared, read-only grid.
//!
//! The paper's value proposition is *predictive* — pick the best grid-aware
//! schedule before running it — which makes the reproduction's currency the
//! number of what-if evaluations per second. A [`WhatIfRunner`] owns a
//! reference to one immutable [`Grid`] and runs a batch of [`Scenario`]s
//! through [`gridcast_core::pool::run_ordered`]. Every worker carries its own
//! [`ScheduleEngine`] and makespan buffer (mutable scratch; the shared inputs
//! are `Sync`-clean read paths) and claims the next scenario when it finishes
//! one, so a few expensive scenarios do not stall one worker's share.
//!
//! Because every scenario is a pure function of `(grid, scenario)` and the
//! pool returns the reports **ordered by scenario index**, the result is
//! bit-identical for any worker-thread count. The unit tests hold the runner
//! to it at 1 against 2, 4 and 5 workers, cold, warm and under faults.
//!
//! A scenario's evaluation is the full predict-then-verify loop:
//!
//! 1. perturb the grid (scaled link capacities, a degraded site uplink, an
//!    alternate root, a cluster dropped from relay duty) — a patched copy
//!    via [`gridcast_core::Perturbation::apply`], or, for a
//!    [`warm_eligible`] scenario in a warm runner, the worker's scratch world
//!    patched in place; this is the only step where the two differ,
//! 2. price every candidate heuristic in one pass of
//!    [`ScheduleEngine::price`]: a cold pass schedules each heuristic on the
//!    fresh problem, a warm pass replays the worker's baseline commit logs
//!    under the scenario's [`ReplayDelta`],
//! 3. pick the best in that same pass (smallest makespan, ties to the earlier
//!    heuristic in the runner's list — [`gridcast_core::best_slot`]), which
//!    keeps the winner's events as its run lands, so the winner is scheduled
//!    once, and
//! 4. *execute* those events node-level on the unified discrete-event core
//!    (trace dropped through [`NullSink`]) so the report carries a
//!    simulated completion, not just the model's claim. A scenario carrying a
//!    [`FaultPlan`] executes under
//!    [`execute_plan_under_faults`] instead — with the runner's
//!    [`RetryPolicy`] — and the report additionally carries the retry count
//!    and the undelivered-edge count
//!    (an [`Outcome::Incomplete`] run reports an
//!    infinite simulated completion, loudly). Fault draws are a pure
//!    function of the scenario's seed, so the bit-identical-for-any-thread-
//!    count contract extends to faulty sweeps unchanged; [`fault_sweep`]
//!    builds the loss-rate × crash-set grid of such scenarios.

use crate::engine::execute_plan_with_sink;
use crate::faults::{execute_plan_under_faults, CapacityWindow, FaultPlan, NodeCrash, RetryPolicy};
use crate::network::NodeNetwork;
use crate::outcome::{Outcome, SimulationOutcome};
use crate::plan::SendPlan;
use crate::trace::NullSink;
use gridcast_core::pool::run_ordered;
use gridcast_core::{
    warm_eligible, BroadcastProblem, Candidates, CommitLog, HeuristicKind, ScheduleEngine,
};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::{ClusterId, Grid};
use std::borrow::Cow;

// The perturbation vocabulary lives in the core crate since the engine's
// commit-log replay reasons about perturbations directly; the simulator
// re-exports it unchanged so existing callers keep compiling.
pub use gridcast_core::{Perturbation, ReplayDelta, DROP_RELAY_FACTOR};

/// A what-if scenario: a list of perturbations applied in order to the
/// runner's baseline grid and root, plus an optional fault plan for the
/// execution leg. The empty list is the baseline itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// The perturbations, applied left to right.
    pub perturbations: Vec<Perturbation>,
    /// Faults injected while *executing* the winning schedule (the
    /// prediction leg stays fault-free — the engine prices the model, the
    /// injector prices reality).
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// The unperturbed baseline.
    pub fn baseline() -> Self {
        Scenario::default()
    }

    /// A single-perturbation scenario.
    pub fn one(perturbation: Perturbation) -> Self {
        Scenario {
            perturbations: vec![perturbation],
            ..Scenario::default()
        }
    }

    /// Attaches a fault plan to the execution leg of this scenario.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Applies the scenario to `grid`/`root`, returning the perturbed pair.
    /// [`Perturbation::TimeVaryingCapacity`] leaves the static model alone —
    /// it surfaces on the execution leg as a fault-injector capacity window.
    pub fn apply(&self, grid: &Grid, root: ClusterId) -> (Grid, ClusterId) {
        // `Perturbation::apply` already yields a fresh grid, so the baseline
        // copy is only made when no perturbation touches the links at all.
        let mut perturbed: Option<Grid> = None;
        let mut root = root;
        for p in &self.perturbations {
            let base = perturbed.as_ref().unwrap_or(grid);
            if let Some(g) = p.apply(base, &mut root) {
                perturbed = Some(g);
            }
        }
        (perturbed.unwrap_or_else(|| grid.clone()), root)
    }
}

/// The evaluation of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// Index of the scenario in the batch handed to [`WhatIfRunner::run`]
    /// (reports come back in this order, whatever the thread count).
    pub scenario: usize,
    /// Predicted makespan of every candidate heuristic, in the runner's
    /// `kinds` order.
    pub makespans: Vec<Time>,
    /// The winning heuristic (smallest predicted makespan; ties break to the
    /// earlier entry of the runner's `kinds`).
    pub best: HeuristicKind,
    /// The winner's predicted makespan.
    pub predicted: Time,
    /// Completion of the winner's schedule executed node-level on the
    /// unified discrete-event core. Infinite when a fault scenario could not
    /// deliver everywhere (the loud `Incomplete` signal).
    pub simulated: Time,
    /// Events the simulation processed (one per delivered message).
    pub events: usize,
    /// Retransmissions the ack/retry protocol issued (0 for fault-free
    /// scenarios).
    pub retries: usize,
    /// Plan edges never delivered (0 for fault-free scenarios and for every
    /// complete faulty run).
    pub undelivered: usize,
}

/// A worker pool running what-if scenarios against one shared, read-only
/// grid. See the [module docs](self) for the evaluation pipeline and the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct WhatIfRunner<'a> {
    grid: &'a Grid,
    message: MessageSize,
    root: ClusterId,
    kinds: Vec<HeuristicKind>,
    threads: usize,
    retry: RetryPolicy,
    warm: bool,
}

/// Warm-start replay counters summed over every worker engine of one sweep.
/// The counters mirror
/// [`gridcast_core::EngineTelemetry`] and stay all-zero when the core's
/// `telemetry` feature is compiled out or the runner is cold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartTelemetry {
    /// Commits replayed verbatim from a baseline commit log.
    pub replayed_commits: u64,
    /// Commits re-verified against the perturbed problem and kept.
    pub repaired_commits: u64,
    /// Commits produced by full selection rounds (divergent suffixes and
    /// cold fallbacks).
    pub recomputed_commits: u64,
}

impl WarmStartTelemetry {
    /// Element-wise sum of two counter sets.
    pub fn merge(self, other: WarmStartTelemetry) -> WarmStartTelemetry {
        WarmStartTelemetry {
            replayed_commits: self.replayed_commits + other.replayed_commits,
            repaired_commits: self.repaired_commits + other.repaired_commits,
            recomputed_commits: self.recomputed_commits + other.recomputed_commits,
        }
    }
}

/// Per-worker warm-start state: the pristine baseline problem, one commit
/// log per candidate heuristic, and the scratch grid / problem / node
/// network the worker patches in place for each scenario and restores from
/// the baseline afterwards — `O(touched links)` per scenario instead of a
/// fresh `O(n²)` world.
struct WarmState {
    baseline: BroadcastProblem,
    problem: BroadcastProblem,
    logs: Vec<CommitLog>,
    scratch: Grid,
    network: NodeNetwork,
    patched: Vec<(ClusterId, ClusterId)>,
}

impl WarmState {
    /// Undoes the previous scenario's patches from the baseline, then
    /// patches `chain` into the scratch grid, problem and node network — both
    /// `O(touched links)`.
    fn patch(&mut self, grid: &Grid, chain: &[Perturbation]) {
        for &(f, t) in &self.patched {
            self.scratch.set_link(f, t, grid.link(f, t).clone());
            self.problem.copy_link_from(&self.baseline, f, t);
            self.network.sync_link_from(grid, f, t);
        }
        self.patched.clear();
        for p in chain {
            p.patch(&mut self.scratch, &mut self.patched);
        }
        for &(f, t) in &self.patched {
            self.problem.repatch_link_from_grid(&self.scratch, f, t);
            self.network.sync_link_from(&self.scratch, f, t);
        }
    }
}

/// One pool worker: an engine and, in a warm runner, the [`WarmState`] built
/// on the worker's first scenario.
#[derive(Default)]
struct Worker {
    engine: ScheduleEngine,
    warm: Option<WarmState>,
}

impl<'a> WhatIfRunner<'a> {
    /// A runner over `grid`, broadcasting `message` from `root`, evaluating
    /// every built-in heuristic, with one worker per available core.
    pub fn new(grid: &'a Grid, message: MessageSize, root: ClusterId) -> Self {
        WhatIfRunner {
            grid,
            message,
            root,
            kinds: HeuristicKind::all().to_vec(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            retry: RetryPolicy::default(),
            warm: false,
        }
    }

    /// Toggles warm-start evaluation: each worker schedules the baseline
    /// once with commit logging, then evaluates every scenario by replaying
    /// the baseline logs under the scenario's [`ReplayDelta`] instead of
    /// scheduling from scratch. The engine's replay contract makes the
    /// reports **bit-identical** to the cold runner's, for every policy and
    /// thread count — this knob trades nothing but wall-clock.
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm = warm;
        self
    }

    /// Overrides the ack/retry protocol used by fault scenarios (scenarios
    /// without a [`FaultPlan`] never retry).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the worker count (at least 1). The results are bit-identical
    /// for any value — this knob trades wall-clock for cores, nothing else.
    /// With one worker the sweep runs on the calling thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "the pool needs at least one worker");
        self.threads = threads;
        self
    }

    /// Overrides the candidate heuristics (order defines the tie-break and
    /// the [`WhatIfReport::makespans`] layout). The list must not be empty:
    /// with no candidate there is no winner to execute.
    pub fn with_kinds(mut self, kinds: &[HeuristicKind]) -> Self {
        assert!(
            !kinds.is_empty(),
            "no candidate heuristics: a what-if runner needs at least one"
        );
        self.kinds = kinds.to_vec();
        self
    }

    /// The candidate heuristics, in report order.
    pub fn kinds(&self) -> &[HeuristicKind] {
        &self.kinds
    }

    /// Evaluates every scenario, fanning the batch out over the worker pool.
    /// Reports come back ordered by scenario index and bit-identical for any
    /// thread count — and, via the replay contract, for warm and cold
    /// runners alike.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<WhatIfReport> {
        self.run_with_telemetry(scenarios).0
    }

    /// Like [`WhatIfRunner::run`], additionally returning the summed
    /// warm-start telemetry of every worker engine (all zeros when the
    /// runner is cold or the core's `telemetry` feature is off).
    pub fn run_with_telemetry(
        &self,
        scenarios: &[Scenario],
    ) -> (Vec<WhatIfReport>, WarmStartTelemetry) {
        let mut workers: Vec<Worker> = (0..self.threads.min(scenarios.len()))
            .map(|_| Worker::default())
            .collect();
        let reports = run_ordered(&mut workers, scenarios.len(), |w, i| {
            self.evaluate(w, i, &scenarios[i])
        });
        let telemetry = workers
            .iter_mut()
            .map(|w| {
                let t = w.engine.take_telemetry();
                WarmStartTelemetry {
                    replayed_commits: t.replayed_commits,
                    repaired_commits: t.repaired_commits,
                    recomputed_commits: t.recomputed_commits,
                }
            })
            .fold(WarmStartTelemetry::default(), WarmStartTelemetry::merge);
        (reports, telemetry)
    }

    /// Evaluates one scenario on worker `w`. Only the scenario's world forks:
    /// a [`warm_eligible`] scenario in a warm runner patches the worker's
    /// scratch world and replays its baseline logs, any other builds a fresh
    /// grid, problem and network and prices cold. One pricing pass then
    /// prices every candidate, picks the winner and hands over its events,
    /// which execute node-level.
    fn evaluate(&self, w: &mut Worker, index: usize, scenario: &Scenario) -> WhatIfReport {
        if self.warm && w.warm.is_none() {
            w.warm = Some(self.warm_state(&mut w.engine));
            // The baseline logging run is setup, not sweep work.
            w.engine.take_telemetry();
        }
        let chain = &scenario.perturbations;
        let (fresh, delta);
        let (grid, problem, network, candidates) = match w.warm.as_mut() {
            Some(warm) if warm_eligible(chain) => {
                warm.patch(self.grid, chain);
                delta = ReplayDelta::from_perturbations(warm.problem.num_clusters(), chain);
                let candidates = Candidates::Warm {
                    logs: &warm.logs,
                    delta: &delta,
                };
                (&warm.scratch, &warm.problem, &warm.network, candidates)
            }
            _ => {
                let (grid, root) = scenario.apply(self.grid, self.root);
                let problem = BroadcastProblem::from_grid(&grid, root, self.message);
                let network = NodeNetwork::new(&grid);
                fresh = (grid, problem, network);
                (&fresh.0, &fresh.1, &fresh.2, Candidates::Cold(&self.kinds))
            }
        };
        let priced = w.engine.price(problem, candidates, None);
        let plan = SendPlan::from_inter_cluster_events(grid, problem.root, &priced.events);
        let (outcome, retries, undelivered) = self.execute(network, &plan, scenario);
        WhatIfReport {
            scenario: index,
            best: self.kinds[priced.slot],
            predicted: priced.makespans[priced.slot],
            makespans: priced.makespans,
            simulated: outcome.completion,
            events: outcome.events_processed,
            retries,
            undelivered,
        }
    }

    /// Builds this worker's warm-start state: the baseline problem, one
    /// commit log per candidate heuristic, and scratch copies of the grid,
    /// problem and node network to patch in place.
    fn warm_state(&self, engine: &mut ScheduleEngine) -> WarmState {
        let baseline = BroadcastProblem::from_grid(self.grid, self.root, self.message);
        let (_, logs) = engine.makespans_logged(&baseline, &self.kinds);
        WarmState {
            problem: baseline.clone(),
            baseline,
            logs,
            scratch: self.grid.clone(),
            network: NodeNetwork::new(self.grid),
            patched: Vec::new(),
        }
    }

    /// The fault plan the execution leg actually runs under: the scenario's
    /// own plan, extended with one capacity window per
    /// [`Perturbation::TimeVaryingCapacity`] in the chain.
    fn effective_faults<'s>(&self, scenario: &'s Scenario) -> Option<Cow<'s, FaultPlan>> {
        let windows = scenario.perturbations.iter().filter_map(|p| match *p {
            Perturbation::TimeVaryingCapacity {
                from,
                to,
                factor,
                from_time,
                until,
            } => Some(CapacityWindow {
                from,
                to,
                factor,
                from_time,
                until,
            }),
            _ => None,
        });
        let mut windows = windows.peekable();
        match (&scenario.faults, windows.peek().is_some()) {
            (None, false) => None,
            (Some(faults), false) => Some(Cow::Borrowed(faults)),
            (faults, true) => {
                let mut plan = faults.clone().unwrap_or_else(|| FaultPlan::new(0));
                for w in windows {
                    plan = plan.with_capacity_window(w);
                }
                Some(Cow::Owned(plan))
            }
        }
    }

    /// Executes `plan` node-level, under the scenario's effective faults
    /// when it has any: the outcome, the retries and the undelivered edges.
    fn execute(
        &self,
        network: &NodeNetwork,
        plan: &SendPlan,
        scenario: &Scenario,
    ) -> (SimulationOutcome, usize, usize) {
        let Some(faults) = self.effective_faults(scenario) else {
            let outcome =
                execute_plan_with_sink(network, plan, self.message, Time::ZERO, &mut NullSink);
            return (outcome, 0, 0);
        };
        let result = execute_plan_under_faults(
            network,
            plan,
            self.message,
            Time::ZERO,
            &faults,
            &self.retry,
            &mut NullSink,
        )
        .expect("the monotone-clock invariant holds under faults");
        let retries = result.stats().retries;
        let undelivered = match &result {
            Outcome::Complete(_) => 0,
            Outcome::Incomplete { undelivered, .. } => undelivered.len(),
        };
        let sim = match result {
            Outcome::Complete(sim) | Outcome::Incomplete { partial: sim, .. } => sim,
        };
        (sim.outcome, retries, undelivered)
    }
}

/// Builds the fault-sweep what-if dimension: the cross product of loss rates
/// and crash sets over the unperturbed baseline grid, every cell carrying a
/// [`FaultPlan`] whose seed is derived deterministically from `seed` and the
/// cell index. Feed the result to [`WhatIfRunner::run`] (typically with a
/// larger retry budget via [`WhatIfRunner::with_retry`]) and compare each
/// cell's `simulated` against the fault-free baseline for the makespan
/// inflation, `undelivered` for the completion-or-`Incomplete` invariant.
pub fn fault_sweep(seed: u64, loss_rates: &[f64], crash_sets: &[Vec<NodeCrash>]) -> Vec<Scenario> {
    let no_crashes: [Vec<NodeCrash>; 1] = [Vec::new()];
    let sets: &[Vec<NodeCrash>] = if crash_sets.is_empty() {
        &no_crashes
    } else {
        crash_sets
    };
    let mut scenarios = Vec::with_capacity(loss_rates.len() * sets.len());
    for (i, &loss) in loss_rates.iter().enumerate() {
        for (j, set) in sets.iter().enumerate() {
            let cell = (i * sets.len() + j) as u64;
            let mut faults = FaultPlan::new(seed ^ cell.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if loss > 0.0 {
                faults = faults.with_loss(loss);
            }
            for &crash in set {
                faults = faults.with_crash(crash);
            }
            scenarios.push(Scenario::baseline().with_faults(faults));
        }
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_topology::{grid5000_table3, GridGenerator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn scenario_mix(grid: &Grid, count: usize) -> Vec<Scenario> {
        let n = grid.num_clusters();
        (0..count)
            .map(|i| match i % 5 {
                0 => Scenario::baseline(),
                1 => Scenario::one(Perturbation::ScaleAllLinks {
                    factor: 0.5 + 0.25 * (i % 8) as f64,
                }),
                2 => Scenario::one(Perturbation::DegradeUplink {
                    cluster: ClusterId(i % n),
                    factor: 2.0 + (i % 4) as f64,
                }),
                3 => Scenario::one(Perturbation::AlternateRoot {
                    root: ClusterId(i % n),
                }),
                _ => Scenario::one(Perturbation::DropRelay {
                    cluster: ClusterId(1 + i % (n - 1)),
                }),
            })
            .collect()
    }

    #[test]
    fn reports_are_bit_identical_across_thread_counts() {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(12, &mut ChaCha8Rng::seed_from_u64(7));
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0));
        let scenarios = scenario_mix(&grid, 41);
        let sequential = runner.clone().with_threads(1).run(&scenarios);
        let parallel = runner.with_threads(4).run(&scenarios);
        assert_eq!(sequential.len(), scenarios.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.best, b.best);
            assert_eq!(a.events, b.events);
            let bits =
                |ts: &[Time]| -> Vec<u64> { ts.iter().map(|t| t.as_secs().to_bits()).collect() };
            assert_eq!(bits(&a.makespans), bits(&b.makespans));
            assert_eq!(
                a.predicted.as_secs().to_bits(),
                b.predicted.as_secs().to_bits()
            );
            assert_eq!(
                a.simulated.as_secs().to_bits(),
                b.simulated.as_secs().to_bits()
            );
            assert!(
                a.simulated.is_finite(),
                "scenario {}: the winner never completed",
                a.scenario
            );
        }
    }

    #[test]
    fn baseline_report_is_consistent() {
        let grid = grid5000_table3();
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0));
        let reports = runner.with_threads(2).run(&[Scenario::baseline()]);
        let report = &reports[0];
        assert_eq!(report.scenario, 0);
        assert_eq!(report.makespans.len(), runner_kinds_len());
        // Fold from INFINITY instead of `min().unwrap()`: an empty makespan
        // set must never be able to panic this path.
        let min = report
            .makespans
            .iter()
            .copied()
            .fold(Time::INFINITY, std::cmp::min);
        assert_eq!(report.predicted, min);
        assert!(report.simulated.is_finite());
        assert_eq!(report.events, 87);
    }

    fn runner_kinds_len() -> usize {
        HeuristicKind::all().len()
    }

    /// An empty candidate set is refused when the runner is configured, so
    /// no sweep ever has to pick a winner from nothing.
    #[test]
    #[should_panic(expected = "no candidate heuristics")]
    fn infallible_run_panics_loudly_on_empty_candidates() {
        let grid = grid5000_table3();
        WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0))
            .with_kinds(&[])
            .run(&[Scenario::baseline()]);
    }

    #[test]
    fn all_heuristics_incomplete_scenario_reports_instead_of_panicking() {
        // Total loss with a single delivery attempt: every heuristic's
        // schedule comes back Incomplete, every simulated completion is
        // infinite — the report must say so loudly, not panic anywhere
        // downstream (this is the empty-finite-makespan shape that used to
        // trip `min().unwrap()` consumers).
        let grid = grid5000_table3();
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0))
            .with_threads(2)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            });
        let scenarios =
            vec![Scenario::baseline().with_faults(FaultPlan::new(0xDEAD).with_loss(1.0))];
        let reports = runner.run(&scenarios);
        let report = &reports[0];
        assert!(!report.simulated.is_finite());
        assert!(report.undelivered > 0, "incomplete runs name their edges");
        // The prediction leg is fault-free and stays finite.
        assert!(report.predicted.is_finite());
    }

    /// A scenario mix with fault plans interleaved: perturbed grids, lossy
    /// executions, crashes — the storm the determinism contract must survive.
    fn faulty_scenario_mix(grid: &Grid, count: usize) -> Vec<Scenario> {
        let n = grid.num_clusters();
        scenario_mix(grid, count)
            .into_iter()
            .enumerate()
            .map(|(i, s)| match i % 3 {
                0 => s,
                1 => s.with_faults(FaultPlan::new(i as u64).with_loss(0.15)),
                _ => s.with_faults(
                    FaultPlan::new(i as u64 ^ 0xFEED)
                        .with_loss(0.05)
                        .with_duplication(0.1)
                        .with_crash(NodeCrash {
                            node: gridcast_topology::NodeId((1 + i % (4 * n - 1)) as u32),
                            at: Time::from_millis(5.0 * (1 + i % 7) as f64),
                        }),
                ),
            })
            .collect()
    }

    #[test]
    fn fault_reports_are_bit_identical_across_thread_counts() {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(9, &mut ChaCha8Rng::seed_from_u64(13));
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0));
        let scenarios = faulty_scenario_mix(&grid, 33);
        let sequential = runner.clone().with_threads(1).run(&scenarios);
        let parallel = runner.with_threads(5).run(&scenarios);
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.retries, b.retries);
            assert_eq!(a.undelivered, b.undelivered);
            assert_eq!(a.events, b.events);
            assert_eq!(
                a.simulated.as_secs().to_bits(),
                b.simulated.as_secs().to_bits()
            );
        }
        // The mix genuinely exercised the protocol: some scenario retried.
        assert!(sequential.iter().any(|r| r.retries > 0));
    }

    #[test]
    fn fault_sweep_cells_complete_or_report_incomplete_loudly() {
        let grid = grid5000_table3();
        let crash_sets = vec![
            Vec::new(),
            vec![NodeCrash {
                node: gridcast_topology::NodeId(9),
                at: Time::from_millis(10.0),
            }],
        ];
        let scenarios = fault_sweep(0xBAD5EED, &[0.0, 0.05, 0.1, 0.2], &crash_sets);
        assert_eq!(scenarios.len(), 8);
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0))
            .with_threads(2)
            .with_retry(RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            });
        for report in runner.run(&scenarios) {
            // The acceptance invariant: under loss p <= 0.2 with retries,
            // every cell either completes with a finite (inflated) makespan
            // or says *why* it could not — never a silent hang.
            if report.simulated.is_finite() {
                assert_eq!(report.undelivered, 0);
                assert!(report.simulated >= report.predicted * 0.99);
            } else {
                assert!(report.undelivered > 0, "incomplete runs name their edges");
            }
        }
    }

    #[test]
    fn degraded_uplink_slows_the_flat_tree_prediction() {
        let grid = grid5000_table3();
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0))
            .with_kinds(&[HeuristicKind::FlatTree])
            .with_threads(1);
        let reports = runner.run(&[
            Scenario::baseline(),
            Scenario::one(Perturbation::DegradeUplink {
                cluster: ClusterId(0),
                factor: 8.0,
            }),
        ]);
        // The flat tree sends everything over the degraded root uplink: the
        // prediction must get strictly worse.
        assert!(reports[1].predicted > reports[0].predicted);
        assert!(reports[1].simulated > reports[0].simulated);
    }

    #[test]
    fn dropped_relay_never_forwards() {
        let grid = grid5000_table3();
        let dropped = ClusterId(2);
        let (perturbed, root) =
            Scenario::one(Perturbation::DropRelay { cluster: dropped }).apply(&grid, ClusterId(0));
        assert_eq!(root, ClusterId(0));
        let problem = BroadcastProblem::from_grid(&perturbed, root, MessageSize::from_mib(1));
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let schedule = engine.schedule(&problem, kind);
            // FEF scores by latency alone and cannot see the gap penalty;
            // every gap-aware heuristic must route around the dropped relay.
            if kind != HeuristicKind::Fef {
                assert!(
                    schedule.events.iter().all(|e| e.sender != dropped),
                    "{kind} relayed through the dropped cluster"
                );
            }
            assert!(schedule.makespan().is_finite());
        }
    }

    #[test]
    fn alternate_root_moves_the_source() {
        let grid = grid5000_table3();
        let scenario = Scenario::one(Perturbation::AlternateRoot { root: ClusterId(4) });
        let (perturbed, root) = scenario.apply(&grid, ClusterId(0));
        assert_eq!(root, ClusterId(4));
        assert_eq!(perturbed, grid);
    }

    /// Every perturbation kind, warm-eligible and not, so the warm runner's
    /// per-scenario dispatch (replay vs cold fallback) is exercised end to
    /// end.
    fn warm_scenario_mix(grid: &Grid, count: usize) -> Vec<Scenario> {
        let n = grid.num_clusters();
        (0..count)
            .map(|i| match i % 8 {
                0 => Scenario::baseline(),
                1 => Scenario::one(Perturbation::DegradeLink {
                    from: ClusterId(i % n),
                    to: ClusterId((i % n + 1) % n),
                    factor: 1.5 + (i % 5) as f64,
                }),
                2 => Scenario::one(Perturbation::DegradeUplink {
                    cluster: ClusterId(i % n),
                    factor: 2.0 + (i % 4) as f64,
                }),
                3 => Scenario::one(Perturbation::DegradeSite {
                    first: ClusterId(i % n),
                    // Every other site runs past the last cluster, its end
                    // past `usize::MAX`: the replay must still see every
                    // row the patch scales.
                    span: if i % 16 == 11 { usize::MAX } else { 1 + i % 3 },
                    factor: 3.0,
                }),
                4 => Scenario::one(Perturbation::TimeVaryingCapacity {
                    from: ClusterId(i % n),
                    to: ClusterId((i % n + 2) % n),
                    factor: 5.0,
                    from_time: Time::ZERO,
                    until: Time::from_millis(400.0),
                }),
                5 => Scenario::one(Perturbation::DropRelay {
                    cluster: ClusterId(1 + i % (n - 1)),
                }),
                6 => Scenario::one(Perturbation::ScaleAllLinks { factor: 2.0 }),
                _ => Scenario::one(Perturbation::AlternateRoot {
                    root: ClusterId(i % n),
                }),
            })
            .collect()
    }

    fn assert_reports_bit_identical(a: &[WhatIfReport], b: &[WhatIfReport]) {
        assert_eq!(a.len(), b.len());
        let bits = |ts: &[Time]| -> Vec<u64> { ts.iter().map(|t| t.as_secs().to_bits()).collect() };
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.best, y.best, "winner diverges at scenario {}", x.scenario);
            assert_eq!(
                bits(&x.makespans),
                bits(&y.makespans),
                "scenario {}",
                x.scenario
            );
            assert_eq!(
                x.predicted.as_secs().to_bits(),
                y.predicted.as_secs().to_bits()
            );
            assert_eq!(
                x.simulated.as_secs().to_bits(),
                y.simulated.as_secs().to_bits(),
                "simulation diverges at scenario {}",
                x.scenario
            );
            assert_eq!(x.events, y.events);
            assert_eq!(x.retries, y.retries);
            assert_eq!(x.undelivered, y.undelivered);
        }
    }

    #[test]
    fn warm_runner_matches_cold_runner_bit_for_bit() {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(14, &mut ChaCha8Rng::seed_from_u64(29));
        let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0));
        let scenarios = warm_scenario_mix(&grid, 48);
        let cold = runner.clone().with_threads(2).run(&scenarios);
        let warm = runner
            .clone()
            .with_warm_start(true)
            .with_threads(2)
            .run(&scenarios);
        let warm_single = runner.with_warm_start(true).with_threads(1).run(&scenarios);
        assert_reports_bit_identical(&cold, &warm);
        assert_reports_bit_identical(&cold, &warm_single);
        for r in &warm {
            assert!(
                r.simulated.is_finite(),
                "scenario {}: the warm winner never completed",
                r.scenario
            );
        }
    }

    #[test]
    fn warm_runner_matches_cold_under_faults() {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(10, &mut ChaCha8Rng::seed_from_u64(31));
        let scenarios: Vec<Scenario> = warm_scenario_mix(&grid, 24)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if i % 3 == 1 {
                    s.with_faults(FaultPlan::new(i as u64).with_loss(0.1))
                } else {
                    s
                }
            })
            .collect();
        let runner =
            WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0)).with_threads(3);
        let cold = runner.clone().run(&scenarios);
        let warm = runner.with_warm_start(true).run(&scenarios);
        assert_reports_bit_identical(&cold, &warm);
    }

    /// Exact replay work of a warm sweep: 400 single-link degradations of
    /// the seeded 100-cluster Table 2 grid (the grid of the core crate's
    /// work pins), summed over every worker engine. How much of each
    /// baseline log survives is a deterministic function of the replay
    /// regimes, and it is what makes a warm sweep cheaper than a cold one: a
    /// replay that diverged earlier than it must would recompute more
    /// commits and move the pin. Each scenario replays the seven baseline
    /// logs once, 400 × 7 × 99 = 277 200 commits in all: the winner's events
    /// come from that pass, so a second run of the winner would add 99 per
    /// scenario. The split must not depend on the worker count, and neither
    /// may the reports.
    #[cfg(feature = "telemetry")]
    #[test]
    fn warm_sweep_reports_replay_telemetry() {
        const CLUSTERS: usize = 100;
        let grid =
            GridGenerator::table2().generate(CLUSTERS, &mut ChaCha8Rng::seed_from_u64(0x0B0B_5CA7));
        let scenarios: Vec<Scenario> = (0..400)
            .map(|i| {
                let from = i % CLUSTERS;
                Scenario::one(Perturbation::DegradeLink {
                    from: ClusterId(from),
                    to: ClusterId((from + 1 + i / CLUSTERS) % CLUSTERS),
                    factor: 1.25 + 0.25 * (i % 12) as f64,
                })
            })
            .collect();
        let runner =
            WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0)).with_warm_start(true);
        let mut sweeps = Vec::new();
        for threads in [1, 2] {
            let (reports, telemetry) = runner
                .clone()
                .with_threads(threads)
                .run_with_telemetry(&scenarios);
            assert_eq!(
                telemetry,
                WarmStartTelemetry {
                    replayed_commits: 247_575,
                    repaired_commits: 6_285,
                    recomputed_commits: 23_340,
                },
                "replay telemetry moved at {threads} workers"
            );
            assert!(
                reports.iter().all(|r| r.simulated.is_finite()),
                "every winning schedule executes to completion"
            );
            sweeps.push(reports);
        }
        assert_reports_bit_identical(&sweeps[0], &sweeps[1]);
    }

    #[test]
    fn capacity_window_slows_execution_but_not_prediction() {
        let grid = grid5000_table3();
        let n = grid.num_clusters();
        // A congestion window over every root uplink from t = 0: the first
        // transfers of any winning schedule start inside it.
        let windowed = Scenario {
            perturbations: (1..n)
                .map(|j| Perturbation::TimeVaryingCapacity {
                    from: ClusterId(0),
                    to: ClusterId(j),
                    factor: 50.0,
                    from_time: Time::ZERO,
                    until: Time::from_millis(10_000.0),
                })
                .collect(),
            faults: None,
        };
        let runner =
            WhatIfRunner::new(&grid, MessageSize::from_mib(1), ClusterId(0)).with_threads(1);
        let reports = runner.run(&[Scenario::baseline(), windowed]);
        // The static model the prediction leg prices is untouched...
        assert_eq!(
            reports[0].predicted.as_secs().to_bits(),
            reports[1].predicted.as_secs().to_bits()
        );
        // ...but the executed collective pays the congestion.
        assert!(reports[1].simulated > reports[0].simulated);
    }

    #[test]
    fn scale_all_links_scales_gaps_but_not_latency() {
        let grid = grid5000_table3();
        let (scaled, _) =
            Scenario::one(Perturbation::ScaleAllLinks { factor: 2.0 }).apply(&grid, ClusterId(0));
        let m = MessageSize::from_mib(1);
        let a = ClusterId(0);
        let b = ClusterId(3);
        assert_eq!(scaled.gap(a, b, m), grid.gap(a, b, m) * 2.0);
        assert_eq!(scaled.latency(a, b), grid.latency(a, b));
    }
}
