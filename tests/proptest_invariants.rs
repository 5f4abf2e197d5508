//! Property-based tests over the core invariants of the library, including
//! byte-for-byte parity between the incremental [`ScheduleEngine`] and direct
//! transliterations of the paper's selection rules.

use gridcast::collectives::{binomial_tree, chain_tree, flat_tree, intra_broadcast_time};
use gridcast::core::heuristics::Lookahead;
use gridcast::core::{
    global_minimum, BroadcastProblem, HeuristicKind, Schedule, ScheduleEngine, ScheduleState,
};
use gridcast::plogp::{GapFunction, MessageSize, PLogP, Time};
use gridcast::simulator::{
    execute_plan_under_faults, FaultPlan, NodeCrash, NodeNetwork, NullSink, Outcome, RetryPolicy,
    SendPlan, TraceEvent,
};
use gridcast::topology::clustering::synthesize_node_matrix;
use gridcast::topology::{
    detect_logical_clusters, Cluster, ClusterId, GridGenerator, LowekampConfig, NodeId,
    ParameterRanges, SquareMatrix,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy producing a random broadcast problem: cluster count, seed and root.
fn problem_strategy() -> impl Strategy<Value = (BroadcastProblem, usize)> {
    (2usize..=12, any::<u64>(), 0usize..12).prop_map(|(clusters, seed, root_idx)| {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        (
            BroadcastProblem::from_grid(&grid, root, MessageSize::from_mib(1)),
            clusters,
        )
    })
}

/// Reference implementations: straight transliterations of the pre-engine
/// per-heuristic round loops (full `O(|A|·|B|)` rescans, the paper's formulas
/// verbatim). The engine must reproduce their schedules **byte-identically** —
/// same events, same floating-point times, same tie-breaks.
mod reference {
    use super::*;
    use gridcast::topology::ClusterId;

    pub fn schedule(kind: HeuristicKind, problem: &BroadcastProblem) -> Schedule {
        let mut state = ScheduleState::new(problem);
        match kind {
            HeuristicKind::FlatTree => {
                let root = problem.root;
                let receivers: Vec<_> = problem.cluster_ids().filter(|&c| c != root).collect();
                for receiver in receivers {
                    state.commit(root, receiver);
                }
            }
            HeuristicKind::Fef => {
                while !state.is_complete() {
                    let mut best: Option<(ClusterId, ClusterId)> = None;
                    let mut best_weight = Time::INFINITY;
                    for sender in state.set_a().collect::<Vec<_>>() {
                        for receiver in state.set_b().collect::<Vec<_>>() {
                            let weight = problem.latency(sender, receiver);
                            if weight < best_weight {
                                best_weight = weight;
                                best = Some((sender, receiver));
                            }
                        }
                    }
                    let (s, r) = best.unwrap();
                    state.commit(s, r);
                }
            }
            HeuristicKind::Ecef
            | HeuristicKind::EcefLa
            | HeuristicKind::EcefLaMin
            | HeuristicKind::EcefLaMax => {
                let lookahead = match kind {
                    HeuristicKind::Ecef => Lookahead::None,
                    HeuristicKind::EcefLa => Lookahead::MinEdge,
                    HeuristicKind::EcefLaMin => Lookahead::MinEdgePlusIntra,
                    _ => Lookahead::MaxEdgePlusIntra,
                };
                while !state.is_complete() {
                    let set_b: Vec<ClusterId> = state.set_b().collect();
                    let mut best: Option<(ClusterId, ClusterId)> = None;
                    let mut best_score = Time::INFINITY;
                    for &receiver in &set_b {
                        let remaining: Vec<ClusterId> =
                            set_b.iter().copied().filter(|&k| k != receiver).collect();
                        let f = lookahead.evaluate(problem, receiver, &remaining);
                        for sender in state.set_a().collect::<Vec<_>>() {
                            let score = state.completion_estimate(sender, receiver) + f;
                            if score < best_score {
                                best_score = score;
                                best = Some((sender, receiver));
                            }
                        }
                    }
                    let (s, r) = best.unwrap();
                    state.commit(s, r);
                }
            }
            HeuristicKind::BottomUp => {
                while !state.is_complete() {
                    let mut chosen: Option<(ClusterId, ClusterId)> = None;
                    let mut chosen_score = Time::ZERO - Time::from_secs(1.0);
                    for receiver in state.set_b().collect::<Vec<_>>() {
                        let (best_sender, best_cost) = state
                            .set_a()
                            .map(|sender| {
                                (
                                    sender,
                                    state.completion_estimate(sender, receiver)
                                        + problem.intra_time(receiver),
                                )
                            })
                            .min_by_key(|&(_, cost)| cost)
                            .expect("set A is never empty");
                        if chosen.is_none() || best_cost > chosen_score {
                            chosen_score = best_cost;
                            chosen = Some((best_sender, receiver));
                        }
                    }
                    let (s, r) = chosen.unwrap();
                    state.commit(s, r);
                }
            }
        }
        state.finish(kind.name())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine emits **byte-identical** schedules to the reference
    /// implementations on random Table-2 grids up to 128 clusters: identical
    /// event sequences (senders, receivers, start/arrival bit patterns),
    /// completion times and JSON serialisations. The range deliberately
    /// exceeds the 100-cluster grid whose rescan telemetry is pinned by
    /// `crates/core/tests/rescan_regression.rs`, so the k-best repair/rescan
    /// machinery is exercised well past the sizes where every invalidation
    /// still repairs in place.
    #[test]
    fn engine_matches_reference_implementations_exactly(
        clusters in 2usize..=128,
        seed in any::<u64>(),
        root_idx in 0usize..128,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let problem = BroadcastProblem::from_grid(&grid, root, MessageSize::from_mib(1));
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let fast = engine.schedule(&problem, kind);
            let slow = reference::schedule(kind, &problem);
            prop_assert_eq!(
                fast.events.len(), slow.events.len(),
                "{} event count mismatch", kind
            );
            for (i, (a, b)) in fast.events.iter().zip(&slow.events).enumerate() {
                prop_assert!(
                    a.sender == b.sender
                        && a.receiver == b.receiver
                        && a.start.as_secs().to_bits() == b.start.as_secs().to_bits()
                        && a.arrival.as_secs().to_bits() == b.arrival.as_secs().to_bits(),
                    "{} diverges at event {} ({:?} vs {:?}) on {} clusters",
                    kind, i, a, b, clusters
                );
            }
            prop_assert_eq!(&fast, &slow, "{} schedules differ structurally", kind);
            let fast_json = serde_json::to_string(&fast).unwrap();
            let slow_json = serde_json::to_string(&slow).unwrap();
            prop_assert_eq!(fast_json, slow_json, "{} JSON differs", kind);
        }
    }

    /// The row width `K` is a pure performance knob: schedules are
    /// **byte-identical** for every `K ≥ 1`, so the default width
    /// (`DEFAULT_K_BEST`) can never change an answer relative to any
    /// [`ScheduleEngine::with_k_best`] override. Exercised across all seven
    /// policies up to 128 clusters — `K = 1` forces the rescan walk on every
    /// invalidation, `K = 16` and `K = 32` (the probe's widest rows) almost
    /// always repair in place, and the default engine sits between; all must
    /// agree to the bit.
    #[test]
    fn default_width_matches_every_fixed_k_byte_identically(
        clusters in 2usize..=128,
        seed in any::<u64>(),
        root_idx in 0usize..128,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let problem = BroadcastProblem::from_grid(&grid, root, MessageSize::from_mib(1));
        let mut default_width = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let baseline = default_width.schedule(&problem, kind);
            for k in [1usize, 2, 5, 16, 32] {
                let fixed = ScheduleEngine::with_k_best(k).schedule(&problem, kind);
                prop_assert_eq!(
                    baseline.events.len(), fixed.events.len(),
                    "{} event count differs at K={}", kind, k
                );
                for (i, (a, b)) in baseline.events.iter().zip(&fixed.events).enumerate() {
                    prop_assert!(
                        a.sender == b.sender
                            && a.receiver == b.receiver
                            && a.start.as_secs().to_bits() == b.start.as_secs().to_bits()
                            && a.arrival.as_secs().to_bits() == b.arrival.as_secs().to_bits(),
                        "{} diverges from K={} at event {} ({:?} vs {:?}) on {} clusters",
                        kind, k, i, a, b, clusters
                    );
                }
            }
        }
    }

    /// Every heuristic produces a valid schedule covering each cluster exactly
    /// once, and its makespan respects the analytic lower bound.
    #[test]
    fn schedules_are_valid_and_bounded((problem, clusters) in problem_strategy()) {
        for kind in HeuristicKind::all() {
            let schedule = kind.schedule(&problem);
            prop_assert!(schedule.validate(&problem).is_ok(), "{kind}");
            prop_assert_eq!(schedule.num_transfers(), clusters - 1);
            prop_assert!(schedule.makespan() >= problem.lower_bound());
            prop_assert!(schedule.makespan().is_finite());
        }
    }

    /// The per-instance global minimum is a lower envelope of every heuristic.
    #[test]
    fn global_minimum_is_a_lower_envelope((problem, _) in problem_strategy()) {
        let reference = global_minimum(&problem, &HeuristicKind::all());
        for kind in HeuristicKind::all() {
            prop_assert!(kind.schedule(&problem).makespan() >= reference);
        }
    }

    /// Schedule events are causally ordered: every sender already holds the
    /// message when its transfer starts, and arrivals are start + g + L.
    #[test]
    fn schedule_events_are_causal((problem, _) in problem_strategy()) {
        let schedule = HeuristicKind::EcefLaMax.schedule(&problem);
        let mut ready = vec![None; problem.num_clusters()];
        ready[problem.root.index()] = Some(Time::ZERO);
        for event in &schedule.events {
            let sender_ready = ready[event.sender.index()];
            prop_assert!(sender_ready.is_some(), "sender had no message");
            prop_assert!(event.start + Time::from_micros(1.0) >= sender_ready.unwrap());
            let expected = event.start + problem.transfer(event.sender, event.receiver);
            prop_assert!(event.arrival.abs_diff(expected) < Time::from_micros(1.0));
            ready[event.receiver.index()] = Some(event.arrival);
        }
    }

    /// Broadcast trees of any size span all ranks, and the binomial tree never
    /// needs more completion time than the flat or chain trees under a
    /// latency-free unit-gap model (where its round count is provably optimal).
    #[test]
    fn tree_shapes_are_spanning_and_binomial_is_fastest(size in 1usize..=200) {
        let unit = PLogP::constant(Time::ZERO, Time::from_secs(1.0));
        let m = MessageSize::from_kib(4);
        let binomial = binomial_tree(size);
        let flat = flat_tree(size);
        let chain = chain_tree(size);
        for tree in [&binomial, &flat, &chain] {
            prop_assert!(tree.validate().is_ok());
            prop_assert_eq!(tree.size(), size);
        }
        let b = binomial.completion_time(&unit, m);
        prop_assert!(b <= flat.completion_time(&unit, m));
        prop_assert!(b <= chain.completion_time(&unit, m));
    }

    /// The intra-cluster broadcast-time predictor is monotone in message size
    /// and zero for singleton clusters.
    #[test]
    fn intra_time_is_monotone(size in 1u32..=128, kib_small in 1u64..=64, factor in 2u64..=64) {
        let plogp = PLogP::affine(Time::from_micros(60.0), Time::from_micros(20.0), 110e6);
        let cluster = Cluster::with_plogp(ClusterId(0), "c", size, plogp);
        let small = intra_broadcast_time(&cluster, MessageSize::from_kib(kib_small));
        let large = intra_broadcast_time(&cluster, MessageSize::from_kib(kib_small * factor));
        if size == 1 {
            prop_assert_eq!(small, Time::ZERO);
            prop_assert_eq!(large, Time::ZERO);
        } else {
            prop_assert!(small <= large);
            prop_assert!(small > Time::ZERO);
        }
    }

    /// Piecewise-linear gap functions interpolate within the sampled bounds.
    #[test]
    fn gap_interpolation_stays_within_sample_bounds(
        gaps in proptest::collection::vec(1.0f64..10_000.0, 2..8),
        query in 0u64..2_000_000,
    ) {
        let samples: Vec<_> = gaps
            .iter()
            .enumerate()
            .map(|(i, &g)| gridcast::plogp::gap::GapSample {
                size: MessageSize::from_kib(((i as u64) + 1) * 128),
                gap: Time::from_micros(g),
            })
            .collect();
        let last_size = samples.last().unwrap().size;
        let function = GapFunction::from_samples(samples.clone()).unwrap();
        let q = MessageSize::from_bytes(query.min(last_size.as_bytes()));
        let value = function.gap(q);
        let min = samples.iter().map(|s| s.gap).min().unwrap();
        let max = samples.iter().map(|s| s.gap).max().unwrap();
        prop_assert!(value >= min && value <= max,
            "interpolated {value} outside [{min}, {max}]");
    }

    /// Logical-cluster detection is a partition: every node appears in exactly
    /// one cluster, and the reported sizes sum to the node count.
    #[test]
    fn clustering_is_a_partition(sizes in proptest::collection::vec(1u32..12, 2..5), tolerance in 0.0f64..1.0) {
        let n = sizes.len();
        // Build a cluster-level latency matrix: distinct sites far apart.
        let mut latency = SquareMatrix::filled(n, 10_000.0);
        for i in 0..n {
            latency[(i, i)] = 50.0;
        }
        let node_matrix = synthesize_node_matrix(&sizes, &latency);
        let clustering = detect_logical_clusters(&node_matrix, LowekampConfig { tolerance });
        let total: usize = sizes.iter().map(|&s| s as usize).sum();
        prop_assert_eq!(clustering.assignment.len(), total);
        prop_assert_eq!(clustering.sizes().iter().sum::<usize>(), total);
        for (cluster_idx, members) in clustering.clusters.iter().enumerate() {
            for &node in members {
                prop_assert_eq!(clustering.assignment[node], cluster_idx);
            }
        }
    }

    /// Fault-boundary totality of the faulty executor: however the storm is
    /// parameterised — loss on every attempt, minimal retry budgets (so
    /// crashes land *after* the last attempt), zero-jitter timeouts that tie
    /// exactly with arrivals, one crash at a bit-exact fault-free reception
    /// instant and another at an arbitrary fraction of the makespan
    /// (including past completion) — the run never produces a NaN time,
    /// never lets the clock run backwards (the always-on queue check would
    /// surface it as a structured `Err`), and is always **loud**: finite
    /// completion if and only if no plan edge went undelivered.
    #[test]
    fn faulty_execution_is_total_loud_and_monotone(
        clusters in 2usize..=8,
        seed in any::<u64>(),
        kind_idx in 0usize..8,
        loss in 0.0f64..1.0,
        duplication in 0.0f64..1.0,
        max_attempts in 1u32..=4,
        jitter in 0.0f64..0.5,
        crash_node in 0u32..64,
        crash_frac in 0.0f64..1.5,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let problem = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        let kinds = HeuristicKind::all();
        let kind = kinds[kind_idx % kinds.len()];
        let mut engine = ScheduleEngine::new();
        let schedule = engine.schedule(&problem, kind);
        let plan = SendPlan::from_grid_schedule(&grid, &schedule);
        let network = NodeNetwork::new(&grid);

        // One crash pinned bit-exactly to a fault-free reception instant (the
        // arrival-at-crash-instant tie), one scaled off the makespan so the
        // window covers both mid-broadcast and after-the-last-attempt.
        let clean = gridcast::simulator::execute_plan_with_sink(
            &network, &plan, problem.message, Time::ZERO, &mut NullSink,
        );
        let nodes = grid.num_nodes();
        let tie_node = NodeId(1 + crash_node % (nodes - 1));
        let frac_node = NodeId(1 + (crash_node / 2) % (nodes - 1));
        let faults = FaultPlan::new(seed)
            .with_loss(loss)
            .with_duplication(duplication)
            .with_crash(NodeCrash {
                node: tie_node,
                at: clean.receive_time(tie_node).max(Time::ZERO),
            })
            .with_crash(NodeCrash {
                node: frac_node,
                at: clean.completion * crash_frac,
            });
        let retry = RetryPolicy { max_attempts, jitter, ..RetryPolicy::default() };

        let mut trace: Vec<TraceEvent> = Vec::new();
        let run = execute_plan_under_faults(
            &network, &plan, problem.message, Time::ZERO, &faults, &retry, &mut trace,
        );
        let outcome = match run {
            Ok(outcome) => outcome,
            Err(e) => return Err(TestCaseError::fail(format!("clock invariant broken: {e}"))),
        };

        for event in &trace {
            prop_assert!(!event.time.as_secs().is_nan(), "NaN trace time: {}", event);
        }
        for w in trace.windows(2) {
            prop_assert!(w[0].time <= w[1].time, "clock regressed: {} then {}", w[0], w[1]);
        }
        let sim = outcome.simulation();
        for t in &sim.outcome.receive_times {
            prop_assert!(!t.as_secs().is_nan(), "NaN reception time");
        }
        match &outcome {
            Outcome::Complete(sim) => {
                prop_assert!(sim.outcome.completion.is_finite());
                prop_assert!(sim.outcome.receive_times.iter().all(|t| t.is_finite()));
                prop_assert!(sim.unreached().is_empty());
            }
            Outcome::Incomplete { undelivered, partial } => {
                prop_assert!(!partial.outcome.completion.is_finite());
                prop_assert!(!undelivered.is_empty(), "silent incompleteness");
            }
        }
    }

    /// Random grid generation always respects the configured parameter ranges.
    #[test]
    fn generated_grids_respect_ranges(clusters in 2usize..=20, seed in any::<u64>()) {
        let ranges = ParameterRanges::table2();
        let grid = GridGenerator::with_ranges(ranges.clone())
            .generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let m = MessageSize::from_mib(1);
        for i in grid.cluster_ids() {
            for j in grid.cluster_ids() {
                if i == j { continue; }
                prop_assert!(grid.latency(i, j) >= ranges.latency.0);
                prop_assert!(grid.latency(i, j) <= ranges.latency.1);
                prop_assert!(grid.gap(i, j, m) >= ranges.gap.0);
                prop_assert!(grid.gap(i, j, m) <= ranges.gap.1);
            }
        }
    }
}
