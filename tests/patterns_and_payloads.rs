//! Property-based tests for the personalised patterns and the engine's
//! per-edge payload path — the **differential conformance suite**:
//!
//! * the costed engine path with uniform payloads is **byte-identical** to the
//!   plain broadcast path (the fast path really is the degenerate case),
//! * infinite sentinel edges (the scatter embedding) mix safely with every
//!   selection policy — no NaN score ever reaches the k-best rows (the
//!   engine's debug assertions are armed in this profile),
//! * relay-capable scatter schedules are exact and bracketed by brute force on
//!   small instances,
//! * the all-to-all and allgather schedules never beat their corrected
//!   analytic lower bounds,
//! * **duality**: the relay-capable gather makespan equals the time-reversed
//!   scatter's (scheduled on the transposed grid) bit for bit, for every
//!   policy, and gather brute force (forward-timed, no mirror involved)
//!   brackets the greedy on ≤5-cluster instances,
//! * **exchange-scheduler parity**: the lazy-invalidation heap behind
//!   `schedule_transfers` is byte-identical to the O(T²) scan it replaced,
//!   kept here as the oracle `schedule_transfers_quadratic`, on random
//!   transfer sets with mixed payloads and release times, and
//! * **simulator conformance**: `execute_sized_plan_with_sink` on
//!   gather/allgather plans reproduces the engine-predicted makespan exactly
//!   on grids with pair-symmetric latencies (GRID'5000 included) and within
//!   the documented 25% gap-model tolerance on adversarial asymmetric ones —
//!   never below the engine's figure. Both executors are now thin lowerings
//!   of the **unified discrete-event core**, so these pins hold the one
//!   event loop to the legacy-executor contract, and
//! * **sink parity**: the streaming [`TraceSink`](gridcast::simulator::TraceSink)
//!   and the retained-vec sink observe event-identical sequences in
//!   non-decreasing time order, with outcomes bit-identical whichever sink
//!   watches the run.

use gridcast::core::patterns::{
    allgather_estimate, allgather_schedule, alltoall_estimate, alltoall_schedule,
};
use gridcast::core::{
    BroadcastProblem, EdgeCosts, ExchangeSchedule, HeuristicKind, RelayGatherProblem,
    RelayOrdering, RelayScatterProblem, ScatterOrdering, ScatterProblem, ScheduleEngine,
    TimedTransfer, Transfer, TransferSet,
};
use gridcast::plogp::{MessageSize, PLogP, Time};
use gridcast::simulator::{
    execute_plan_with_sink, execute_sized_plan_with_sink, CountingSink, NodeNetwork, NullSink,
    SendPlan, SizedSendPlan, StreamingSink, TraceEvent,
};
use gridcast::topology::{grid5000_table3, Cluster, ClusterId, Grid, GridGenerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `schedule_costed` with `EdgeCosts::uniform` reproduces the plain path
    /// **bit for bit** on random Table-2 grids up to 128 clusters, for every
    /// heuristic — same events, same float bit patterns, same completion
    /// times. This is the parity guarantee that lets the broadcast fast path
    /// share one round loop with the payload-priced patterns.
    #[test]
    fn uniform_payload_engine_path_is_byte_identical(
        clusters in 2usize..=128,
        seed in any::<u64>(),
        root_idx in 0usize..128,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let problem = BroadcastProblem::from_grid(&grid, root, MessageSize::from_mib(1));
        let costs = EdgeCosts::uniform(&problem);
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let plain = engine.schedule(&problem, kind);
            let costed = engine.schedule_costed(&problem, &costs, kind);
            prop_assert_eq!(plain.events.len(), costed.events.len(), "{}", kind);
            for (a, b) in plain.events.iter().zip(&costed.events) {
                prop_assert!(
                    a.sender == b.sender
                        && a.receiver == b.receiver
                        && a.start.as_secs().to_bits() == b.start.as_secs().to_bits()
                        && a.arrival.as_secs().to_bits() == b.arrival.as_secs().to_bits(),
                    "{} diverges on {} clusters", kind, clusters
                );
            }
            let plain_spans: Vec<u64> =
                plain.cluster_completion.iter().map(|t| t.as_secs().to_bits()).collect();
            let costed_spans: Vec<u64> =
                costed.cluster_completion.iter().map(|t| t.as_secs().to_bits()).collect();
            prop_assert_eq!(plain_spans, costed_spans, "{} completions diverge", kind);
        }
    }

    /// Problems with infinite sentinel edges — the scatter embedding makes
    /// every non-root link infinitely expensive — run through **every**
    /// selection policy without producing a NaN score (the engine's debug
    /// assertions would abort this test) and still yield valid, finite
    /// schedules: only the finite root edges are ever committed.
    #[test]
    fn infinite_sentinel_edges_mix_safely_with_every_policy(
        clusters in 2usize..=24,
        seed in any::<u64>(),
        root_idx in 0usize..24,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let scatter = ScatterProblem::from_grid(&grid, root, MessageSize::from_kib(64));
        let embedded = scatter.as_broadcast_problem();
        let mut engine = ScheduleEngine::new();
        for kind in HeuristicKind::all() {
            let schedule = engine.schedule(&embedded, kind);
            prop_assert!(schedule.validate(&embedded).is_ok(), "{}", kind);
            prop_assert!(schedule.makespan().is_finite(), "{}", kind);
            for event in &schedule.events {
                prop_assert_eq!(event.sender, root, "{} relayed an infinite edge", kind);
            }
        }
        // The scatter orderings themselves stay sane on the same embedding.
        for ordering in [
            ScatterOrdering::ListOrder,
            ScatterOrdering::LongestTailFirst,
            ScatterOrdering::ShortestTailFirst,
        ] {
            prop_assert!(ordering.makespan(&scatter).is_finite());
        }
    }

    /// Relay-capable scatter on ≤5-cluster instances, checked against full
    /// brute-force enumeration of every relay tree and send order: the greedy
    /// schedules never beat the enumerated optimum (they are exact timings of
    /// real trees), the optimum never loses to the best direct-only ordering
    /// (stars are a subset of trees), and the direct greedy never beats the
    /// direct brute force.
    #[test]
    fn relay_scatter_is_bracketed_by_brute_force(
        clusters in 2usize..=5,
        seed in any::<u64>(),
        root_idx in 0usize..5,
        kib in 1u64..=512,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let problem = RelayScatterProblem::from_grid(&grid, root, MessageSize::from_kib(kib));
        let optimal = problem.optimal_makespan();
        let best_direct = problem.best_direct_makespan();
        let eps = Time::from_micros(1.0);
        prop_assert!(optimal <= best_direct + eps,
            "relay optimum {} worse than direct optimum {}", optimal, best_direct);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let makespan = problem.makespan(ordering);
            prop_assert!(makespan.is_finite(), "{:?}", ordering);
            prop_assert!(makespan + eps >= optimal,
                "{:?} ({}) beat the brute-force optimum ({})", ordering, makespan, optimal);
        }
        prop_assert!(problem.makespan(RelayOrdering::Direct) + eps >= best_direct);
    }

    /// The engine-scheduled all-to-all is executable, covers every ordered
    /// cluster pair, and never beats the corrected interface-time lower
    /// bound.
    #[test]
    fn alltoall_schedule_respects_the_lower_bound(
        clusters in 2usize..=10,
        seed in any::<u64>(),
        kib in 1u64..=64,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let per_pair = MessageSize::from_kib(kib);
        let schedule = alltoall_schedule(&grid, per_pair);
        let estimate = alltoall_estimate(&grid, per_pair);
        prop_assert_eq!(schedule.exchange.transfers.len(), clusters * (clusters - 1));
        prop_assert!(schedule.makespan().is_finite());
        prop_assert!(schedule.makespan() + Time::from_micros(1.0) >= estimate,
            "schedule {} beat the lower bound {}", schedule.makespan(), estimate);
    }

    /// The engine-scheduled allgather covers every ordered cluster pair and
    /// never beats its corrected lower bound (send *and* receive interface
    /// time, release-gated, one terminal latency).
    #[test]
    fn allgather_schedule_respects_the_lower_bound(
        clusters in 2usize..=10,
        seed in any::<u64>(),
        kib in 1u64..=64,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let per_node = MessageSize::from_kib(kib);
        let schedule = allgather_schedule(&grid, per_node);
        let estimate = allgather_estimate(&grid, per_node);
        prop_assert_eq!(schedule.exchange.transfers.len(), clusters * (clusters - 1));
        prop_assert!(schedule.makespan().is_finite());
        prop_assert!(schedule.makespan() + Time::from_micros(1.0) >= estimate,
            "schedule {} beat the lower bound {}", schedule.makespan(), estimate);
    }

    /// **Duality**: for every grid up to 128 clusters and every relay policy,
    /// the relay-capable gather makespan equals the time-reversed scatter's —
    /// a `RelayScatterProblem` built independently on the transposed grid —
    /// **bit for bit**.
    #[test]
    fn gather_is_the_time_reversed_scatter_dual(
        clusters in 2usize..=128,
        seed in any::<u64>(),
        root_idx in 0usize..128,
        kib in 1u64..=512,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let per_node = MessageSize::from_kib(kib);
        let gather = RelayGatherProblem::from_grid(&grid, root, per_node);
        let reversed = RelayScatterProblem::from_grid(&grid.transposed(), root, per_node);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let g = gather.makespan(ordering);
            let s = reversed.makespan(ordering);
            prop_assert!(g.is_finite());
            prop_assert_eq!(
                g.as_secs().to_bits(), s.as_secs().to_bits(),
                "{:?} on {} clusters: gather {} vs reversed scatter {}",
                ordering, clusters, g, s
            );
        }
    }

    /// Gather brute force on ≤5-cluster instances: enumerating **all** gather
    /// trees with the independent forward (ASAP) timing agrees with the
    /// mirrored scatter's enumeration and brackets every greedy policy —
    /// the gather twin of the PR 3 scatter bracket.
    #[test]
    fn gather_brute_force_brackets_the_greedy(
        clusters in 2usize..=5,
        seed in any::<u64>(),
        root_idx in 0usize..5,
        kib in 1u64..=512,
    ) {
        let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let root = ClusterId(root_idx % clusters);
        let problem = RelayGatherProblem::from_grid(&grid, root, MessageSize::from_kib(kib));
        let optimal = problem.optimal_makespan();
        let forward_optimal = problem.optimal_forward_makespan();
        // Forward timing and reflection accumulate floats differently; the
        // values are mathematically equal.
        let eps = Time::from_micros(10.0).max(optimal * 1e-9);
        prop_assert!(optimal.approx_eq(forward_optimal, eps),
            "mirror optimum {} vs forward optimum {}", optimal, forward_optimal);
        let best_direct = problem.best_direct_makespan();
        prop_assert!(optimal <= best_direct + eps);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let makespan = problem.makespan(ordering);
            prop_assert!(makespan.is_finite(), "{:?}", ordering);
            prop_assert!(makespan + eps >= optimal,
                "{:?} ({}) beat the gather brute-force optimum ({})", ordering, makespan, optimal);
        }
        prop_assert!(problem.makespan(RelayOrdering::Direct) + eps >= best_direct);
    }

    /// **Sink parity on the unified core**: for random grids and both
    /// lowerings — the broadcast `SendPlan` and the personalised
    /// `SizedSendPlan` — the retained-vec sink and the streaming sink observe
    /// **event-identical sequences** in non-decreasing time order, the
    /// counting sink agrees on the totals, and the outcome is bit-identical
    /// whichever sink watches the run.
    #[test]
    fn trace_sinks_observe_event_identical_sequences(
        clusters in 2usize..=16,
        seed in any::<u64>(),
        root_idx in 0usize..16,
        kib in 1u64..=256,
    ) {
        let grid = GridGenerator::table2()
            .cluster_size(3)
            .generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
        let network = NodeNetwork::new(&grid);
        let root = ClusterId(root_idx % clusters);
        let m = MessageSize::from_kib(kib * 4);

        // Broadcast lowering: the grid-unaware binomial baseline (crosses
        // cluster boundaries, so wide-area channels and retries are hit).
        let plan = SendPlan::binomial_over_all_nodes(&grid, root);
        let mut retained: Vec<TraceEvent> = Vec::new();
        let kept = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut retained);
        let mut streaming = StreamingSink::new(Vec::new());
        let streamed = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut streaming);
        let mut counting = CountingSink::default();
        let counted = execute_plan_with_sink(&network, &plan, m, Time::ZERO, &mut counting);
        prop_assert_eq!(&kept, &streamed);
        prop_assert_eq!(&kept, &counted);
        let receive_bits: Vec<u64> =
            kept.receive_times.iter().map(|t| t.as_secs().to_bits()).collect();
        let stream_bits: Vec<u64> =
            streamed.receive_times.iter().map(|t| t.as_secs().to_bits()).collect();
        prop_assert_eq!(receive_bits, stream_bits);
        prop_assert!(retained.windows(2).all(|w| w[0].time <= w[1].time),
            "trace is not in non-decreasing time order");
        let text = String::from_utf8(streaming.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let expected: Vec<String> = retained.iter().map(|e| e.to_string()).collect();
        prop_assert_eq!(lines.len(), expected.len());
        for (line, event) in lines.iter().zip(&expected) {
            prop_assert_eq!(*line, event.as_str());
        }
        prop_assert_eq!(counting.total(), retained.len());

        // Personalised lowering: a gather schedule with its release gates.
        let per_node = MessageSize::from_kib(kib);
        let problem = RelayGatherProblem::from_grid(&grid, root, per_node);
        let schedule = problem.schedule(RelayOrdering::EarliestCompletion);
        let sized = SizedSendPlan::from_gather_schedule(&grid, &schedule, per_node);
        let mut sized_retained: Vec<TraceEvent> = Vec::new();
        let a = execute_sized_plan_with_sink(&network, &sized, Time::ZERO, &mut sized_retained).unwrap();
        let mut sized_streaming = StreamingSink::new(Vec::new());
        let b = execute_sized_plan_with_sink(&network, &sized, Time::ZERO, &mut sized_streaming).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(sized_retained.windows(2).all(|w| w[0].time <= w[1].time));
        let text = String::from_utf8(sized_streaming.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let expected: Vec<String> = sized_retained.iter().map(|e| e.to_string()).collect();
        prop_assert_eq!(lines.len(), expected.len());
        for (line, event) in lines.iter().zip(&expected) {
            prop_assert_eq!(*line, event.as_str());
        }
    }

    /// **Exchange-scheduler parity**: the lazy-invalidation heap behind
    /// `schedule_transfers` produces byte-identical schedules to the O(T²)
    /// oracle on random transfer sets — mixed payload sizes, up to 64
    /// clusters, duplicate pairs allowed, random release times included.
    #[test]
    fn exchange_heap_is_byte_identical_to_the_oracle(
        clusters in 2usize..=64,
        transfers in 1usize..=256,
        seed in any::<u64>(),
        release_sel in 0u8..=1,
    ) {
        let with_release = release_sel == 1;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = TransferSet::new(clusters);
        for _ in 0..transfers {
            let from = rng.gen_range_u64(0, clusters as u64) as usize;
            let mut to = rng.gen_range_u64(0, clusters as u64 - 1) as usize;
            if to >= from {
                to += 1;
            }
            set.push(Transfer {
                from: ClusterId(from),
                to: ClusterId(to),
                payload: MessageSize::from_kib(1 + rng.gen_range_u64(0, 512)),
                gap: Time::from_millis(0.01 + 50.0 * rng.gen_f64()),
                latency: Time::from_millis(0.01 + 100.0 * rng.gen_f64()),
            });
        }
        let release: Vec<Time> = (0..clusters)
            .map(|_| if with_release {
                Time::from_millis(20.0 * rng.gen_f64())
            } else {
                Time::ZERO
            })
            .collect();
        let mut engine = ScheduleEngine::new();
        let fast = engine.schedule_transfers_from(&set, &release);
        let (oracle, scans) = schedule_transfers_quadratic(&set, &release);
        prop_assert_eq!(scans, (transfers * (transfers + 1) / 2) as u64);
        prop_assert_eq!(fast.transfers.len(), oracle.transfers.len());
        for (a, b) in fast.transfers.iter().zip(&oracle.transfers) {
            prop_assert!(
                a.from == b.from
                    && a.to == b.to
                    && a.payload == b.payload
                    && a.start.as_secs().to_bits() == b.start.as_secs().to_bits()
                    && a.arrival.as_secs().to_bits() == b.arrival.as_secs().to_bits(),
                "heap and oracle diverge on {} clusters / {} transfers", clusters, transfers
            );
        }
        let fast_free: Vec<u64> = fast.interface_free.iter().map(|t| t.as_secs().to_bits()).collect();
        let oracle_free: Vec<u64> = oracle.interface_free.iter().map(|t| t.as_secs().to_bits()).collect();
        prop_assert_eq!(fast_free, oracle_free);
        prop_assert_eq!(fast.last_arrival, oracle.last_arrival);
    }
}

/// The O(T²) earliest-completion-first scan that the exchange heap
/// replaced, kept as its differential oracle: each round scans every pending
/// transfer and commits the one with the smallest
/// `(completion, from, to, insertion index)`, where the completion is
/// `max(free_src, free_dst) + g + L`. Cluster `i`'s interface is free from
/// `release[i]`. Returns the schedule and the number of candidate
/// completions evaluated, which is exactly T(T+1)/2.
fn schedule_transfers_quadratic(set: &TransferSet, release: &[Time]) -> (ExchangeSchedule, u64) {
    let n = set.num_clusters();
    assert_eq!(release.len(), n, "one release time per cluster");
    let transfers = set.transfers();
    let mut free = release.to_vec();
    let mut last_arrival = vec![Time::ZERO; n];
    let mut remaining: Vec<u32> = (0..transfers.len() as u32).collect();
    let mut out = Vec::with_capacity(remaining.len());
    let mut scans = 0u64;
    while !remaining.is_empty() {
        let mut best_slot = 0usize;
        let mut best_key = (Time::INFINITY, u32::MAX, u32::MAX, u32::MAX);
        for (slot, &idx) in remaining.iter().enumerate() {
            scans += 1;
            let t = &transfers[idx as usize];
            let start = free[t.from.index()].max(free[t.to.index()]);
            let completion = start + t.gap + t.latency;
            let key = (completion, t.from.index() as u32, t.to.index() as u32, idx);
            if key < best_key {
                best_key = key;
                best_slot = slot;
            }
        }
        let idx = remaining.swap_remove(best_slot);
        let t = &transfers[idx as usize];
        let start = free[t.from.index()].max(free[t.to.index()]);
        let nic_release = start + t.gap;
        let arrival = nic_release + t.latency;
        free[t.from.index()] = nic_release;
        free[t.to.index()] = nic_release;
        last_arrival[t.to.index()] = last_arrival[t.to.index()].max(arrival);
        out.push(TimedTransfer {
            from: t.from,
            to: t.to,
            payload: t.payload,
            start,
            arrival,
        });
    }
    let schedule = ExchangeSchedule {
        transfers: out,
        interface_free: free,
        last_arrival,
    };
    (schedule, scans)
}

#[test]
fn transfer_heap_is_byte_identical_to_the_quadratic_oracle() {
    // Mixed payload sizes on a random grid: the lazy-invalidation heap
    // must reproduce the O(T²) oracle exactly — same commit order, same
    // float bit patterns.
    for clusters in [2usize, 5, 11, 23] {
        let grid = GridGenerator::table2().generate(
            clusters,
            &mut ChaCha8Rng::seed_from_u64(300 + clusters as u64),
        );
        let p = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        let mut set = TransferSet::new(clusters);
        for s in 0..clusters {
            for r in 0..clusters {
                if s == r {
                    continue;
                }
                let payload = MessageSize::from_kib(1 + ((s * 7 + r * 3) % 64) as u64);
                set.push(Transfer {
                    from: ClusterId(s),
                    to: ClusterId(r),
                    payload,
                    gap: p.gap(ClusterId(s), ClusterId(r)) * (1.0 + (r % 5) as f64 * 0.1),
                    latency: p.latency(ClusterId(s), ClusterId(r)),
                });
            }
        }
        let mut engine = ScheduleEngine::new();
        let fast = engine.schedule_transfers(&set);
        let (oracle, _) = schedule_transfers_quadratic(&set, &vec![Time::ZERO; clusters]);
        assert_eq!(fast.transfers.len(), oracle.transfers.len());
        for (a, b) in fast.transfers.iter().zip(&oracle.transfers) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.start.as_secs().to_bits(), b.start.as_secs().to_bits());
            assert_eq!(a.arrival.as_secs().to_bits(), b.arrival.as_secs().to_bits());
        }
        assert_eq!(fast.interface_free, oracle.interface_free);
        assert_eq!(fast.last_arrival, oracle.last_arrival);
    }
}

#[test]
fn release_times_gate_the_exchange_and_both_paths_agree() {
    let mut set = TransferSet::new(3);
    let mk = |from: usize, to: usize, gap_ms: f64, lat_ms: f64| Transfer {
        from: ClusterId(from),
        to: ClusterId(to),
        payload: MessageSize::from_kib(1),
        gap: Time::from_millis(gap_ms),
        latency: Time::from_millis(lat_ms),
    };
    set.push(mk(0, 1, 10.0, 1.0));
    set.push(mk(2, 1, 4.0, 1.0));
    let release = [Time::from_millis(50.0), Time::ZERO, Time::ZERO];
    let mut engine = ScheduleEngine::new();
    let fast = engine.schedule_transfers_from(&set, &release);
    let (oracle, _) = schedule_transfers_quadratic(&set, &release);
    assert_eq!(fast, oracle);
    // Cluster 2 is free immediately; cluster 0's send waits for its
    // release.
    assert_eq!(fast.transfers[0].from, ClusterId(2));
    assert_eq!(fast.transfers[0].start, Time::ZERO);
    assert_eq!(fast.transfers[1].from, ClusterId(0));
    assert_eq!(fast.transfers[1].start, Time::from_millis(50.0));
}

/// A grid of `n` singleton clusters with identical modelled links everywhere —
/// the "uniform grid" of the conformance contract, where the simulator must
/// reproduce the engine exactly.
fn uniform_singleton_grid(n: usize) -> Grid {
    let lan = PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6);
    let wan = PLogP::affine(Time::from_millis(5.0), Time::from_millis(8.0), 100e6);
    let mut builder = Grid::builder();
    for i in 0..n {
        builder = builder.cluster(Cluster::with_plogp(
            ClusterId(i),
            format!("c{i}"),
            1,
            lan.clone(),
        ));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            builder = builder.link_symmetric(ClusterId(i), ClusterId(j), wan.clone());
        }
    }
    builder.build().unwrap()
}

/// An adversarial grid: modelled clusters of mixed sizes with fully
/// asymmetric directed links (different per-message cost, bandwidth *and*
/// latency in each direction) — the instance class where the reflected gather
/// windows shift by latency differences and the simulator may lag the engine
/// figure (never beat it).
fn asymmetric_grid(n: usize, seed: u64) -> Grid {
    let lan = PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = Grid::builder();
    for i in 0..n {
        builder = builder.cluster(Cluster::with_plogp(
            ClusterId(i),
            format!("c{i}"),
            1 + (i as u32 % 4) * 3,
            lan.clone(),
        ));
    }
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let link = PLogP::affine(
                Time::from_millis(1.0 + 60.0 * rng.gen_f64()),
                Time::from_millis(2.0 + 40.0 * rng.gen_f64()),
                30e6 + 200e6 * rng.gen_f64(),
            );
            builder = builder.link_directed(ClusterId(i), ClusterId(j), link);
        }
    }
    builder.build().unwrap()
}

/// Simulator conformance, exact half: on **uniform grids** (singleton
/// clusters, identical modelled links) `execute_sized_plan_with_sink`
/// reproduces the engine-predicted gather and allgather makespans to float tolerance — the
/// reflected receive windows stay feasible, there are no local phases to
/// approximate, and the staged executor's both-endpoint occupancy is the
/// transfer scheduler's.
#[test]
fn simulator_reproduces_engine_gather_and_allgather_makespans_exactly_on_uniform_grids() {
    let eps = Time::from_micros(10.0);
    for (name, grid) in [
        ("uniform-3", uniform_singleton_grid(3)),
        ("uniform-6", uniform_singleton_grid(6)),
        ("uniform-12", uniform_singleton_grid(12)),
    ] {
        let network = NodeNetwork::new(&grid);
        for &kib in &[16u64, 256] {
            let per_node = MessageSize::from_kib(kib);
            for ordering in [
                RelayOrdering::Direct,
                RelayOrdering::EarliestCompletion,
                RelayOrdering::EarliestLocalFinish,
            ] {
                let problem = RelayGatherProblem::from_grid(&grid, ClusterId(0), per_node);
                let schedule = problem.schedule(ordering);
                let plan = SizedSendPlan::from_gather_schedule(&grid, &schedule, per_node);
                let outcome =
                    execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink)
                        .unwrap();
                assert!(
                    outcome.completion.approx_eq(schedule.makespan(), eps),
                    "{name} gather {ordering:?} @ {kib} KiB: simulated {} vs engine {}",
                    outcome.completion,
                    schedule.makespan()
                );
            }
            let allgather = allgather_schedule(&grid, per_node);
            let plan = SizedSendPlan::from_allgather_schedule(&grid, &allgather, per_node);
            let outcome =
                execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink).unwrap();
            assert!(
                outcome.completion.approx_eq(allgather.makespan(), eps),
                "{name} allgather @ {kib} KiB: simulated {} vs engine {}",
                outcome.completion,
                allgather.makespan()
            );
        }
    }
}

/// Simulator conformance on GRID'5000: the wide-area latencies are symmetric
/// per pair, so the only approximation is the multi-node clusters' local
/// phases — the binomial realisation can lag the analytic formula when
/// latency dominates small chunks (deep subtrees ready late, idle gaps at the
/// local root). The simulated makespan stays within a few percent above the
/// engine figure (large blocks are exact — the gap term packs the tree) and
/// never beats it.
#[test]
fn simulator_conformance_on_grid5000_is_within_the_documented_tolerance() {
    let grid = grid5000_table3();
    let network = NodeNetwork::new(&grid);
    let eps = Time::from_micros(10.0);
    for &kib in &[16u64, 64, 256] {
        let per_node = MessageSize::from_kib(kib);
        for ordering in [
            RelayOrdering::Direct,
            RelayOrdering::EarliestCompletion,
            RelayOrdering::EarliestLocalFinish,
        ] {
            let problem = RelayGatherProblem::from_grid(&grid, ClusterId(0), per_node);
            let schedule = problem.schedule(ordering);
            let plan = SizedSendPlan::from_gather_schedule(&grid, &schedule, per_node);
            let outcome =
                execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink).unwrap();
            let engine = schedule.makespan();
            assert!(
                outcome.completion + eps >= engine,
                "gather {ordering:?} @ {kib} KiB: simulation {} beat the engine {}",
                outcome.completion,
                engine
            );
            assert!(
                outcome.completion <= engine * 1.05,
                "gather {ordering:?} @ {kib} KiB: simulation {} exceeds 5% over {}",
                outcome.completion,
                engine
            );
        }
        let allgather = allgather_schedule(&grid, per_node);
        let plan = SizedSendPlan::from_allgather_schedule(&grid, &allgather, per_node);
        let outcome =
            execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink).unwrap();
        assert!(outcome.completion + eps >= allgather.makespan());
        assert!(outcome.completion <= allgather.makespan() * 1.05);
    }
}

/// Simulator conformance, tolerance half: on adversarial fully-asymmetric
/// grids the reflected gather receive windows shift by per-direction latency
/// differences, so the executor may have to push receives later — the
/// simulated makespan stays within the documented **25% gap-model tolerance**
/// above the engine figure and never beats it (the engine's schedule is a
/// genuine lower bound for its own node-level realisation).
#[test]
fn simulator_conformance_is_bounded_on_asymmetric_grids() {
    let eps = Time::from_micros(10.0);
    for seed in 0..10u64 {
        for n in [3usize, 6, 10] {
            let grid = asymmetric_grid(n, seed * 131 + n as u64);
            let network = NodeNetwork::new(&grid);
            let per_node = MessageSize::from_kib(32);
            for ordering in [RelayOrdering::Direct, RelayOrdering::EarliestCompletion] {
                let problem = RelayGatherProblem::from_grid(&grid, ClusterId(0), per_node);
                let schedule = problem.schedule(ordering);
                let plan = SizedSendPlan::from_gather_schedule(&grid, &schedule, per_node);
                let outcome =
                    execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink)
                        .unwrap();
                let engine = schedule.makespan();
                assert!(
                    outcome.completion + eps >= engine,
                    "seed {seed} n {n} {ordering:?}: simulation {} beat the engine {}",
                    outcome.completion,
                    engine
                );
                assert!(
                    outcome.completion <= engine * 1.25,
                    "seed {seed} n {n} {ordering:?}: simulation {} exceeds the 25% tolerance over {}",
                    outcome.completion,
                    engine
                );
            }
            let allgather = allgather_schedule(&grid, per_node);
            let plan = SizedSendPlan::from_allgather_schedule(&grid, &allgather, per_node);
            let outcome =
                execute_sized_plan_with_sink(&network, &plan, Time::ZERO, &mut NullSink).unwrap();
            assert!(outcome.completion + eps >= allgather.makespan());
            assert!(outcome.completion <= allgather.makespan() * 1.25);
        }
    }
}
