//! Warm-start regression suite: the commit-log replay's bit-identity
//! contract swept across all policies, candidate-row widths and random
//! perturbations (single links, whole sites, moved roots) up to 128
//! clusters, plus exact replay-telemetry pins on the acceptance-scale
//! 100-cluster grid.

use gridcast_bench::random_grid;
use gridcast_core::{BroadcastProblem, HeuristicKind, Perturbation, Schedule, ScheduleEngine};
use gridcast_plogp::MessageSize;
use gridcast_topology::ClusterId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The candidate-row widths the sweep exercises: the degenerate head-only
/// cache, the default width, and wider rows.
const K_SWEEP: [usize; 4] = [1, 2, 4, 16];

fn assert_schedules_bit_identical(warm: &Schedule, cold: &Schedule, what: &str) {
    assert_eq!(warm.events.len(), cold.events.len(), "{what}: event count");
    for (i, (w, c)) in warm.events.iter().zip(&cold.events).enumerate() {
        assert_eq!(w.sender, c.sender, "{what}: sender of event {i}");
        assert_eq!(w.receiver, c.receiver, "{what}: receiver of event {i}");
        assert_eq!(
            w.start.as_secs().to_bits(),
            c.start.as_secs().to_bits(),
            "{what}: start of event {i}"
        );
        assert_eq!(
            w.arrival.as_secs().to_bits(),
            c.arrival.as_secs().to_bits(),
            "{what}: arrival of event {i}"
        );
    }
}

/// Draws one random perturbation: a single degraded link, a degraded site
/// span, or a moved root (the incompatible-log cold-fallback path). Factors
/// mix improving (< 1) and worsening (> 1) scalings.
fn random_perturbation(rng: &mut ChaCha8Rng, clusters: usize, sel: u8) -> Perturbation {
    let factor = if rng.gen_f64() < 0.5 {
        0.2 + 0.7 * rng.gen_f64()
    } else {
        1.0 + 7.0 * rng.gen_f64()
    };
    match sel {
        0 => {
            let from = rng.gen_range_u64(0, clusters as u64) as usize;
            let mut to = rng.gen_range_u64(0, clusters as u64 - 1) as usize;
            if to >= from {
                to += 1;
            }
            Perturbation::DegradeLink {
                from: ClusterId(from),
                to: ClusterId(to),
                factor,
            }
        }
        1 => Perturbation::DegradeSite {
            first: ClusterId(rng.gen_range_u64(0, clusters as u64) as usize),
            span: 1 + rng.gen_range_u64(0, 4) as usize,
            factor,
        },
        _ => Perturbation::AlternateRoot {
            root: ClusterId(rng.gen_range_u64(0, clusters as u64) as usize),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant, randomized: for every policy, every K and a
    /// random perturbation on a random grid of up to 128 clusters, replaying
    /// the baseline commit log under the perturbed problem is bit-identical
    /// to scheduling the perturbed problem cold.
    #[test]
    fn warm_replay_is_bit_identical_for_random_perturbations(
        clusters in 2usize..=128,
        seed in any::<u64>(),
        k_sel in 0usize..=3,
        kind_sel in 0usize..=6,
        perturb_sel in 0u8..=2,
    ) {
        let kind = HeuristicKind::all()[kind_sel];
        let k = K_SWEEP[k_sel];
        let grid = random_grid(clusters, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00DE_C0DE);
        let message = MessageSize::from_mib(1);
        let root = ClusterId(0);
        let base = BroadcastProblem::from_grid(&grid, root, message);
        let perturbation = random_perturbation(&mut rng, clusters, perturb_sel);

        let mut proot = root;
        let mut cur = grid.clone();
        if let Some(g) = perturbation.apply(&cur, &mut proot) {
            cur = g;
        }
        let perturbed = BroadcastProblem::from_grid(&cur, proot, message);

        let mut engine = ScheduleEngine::with_k_best(k);
        let (_, log) = engine.schedule_logged(&base, kind);
        let cold = engine.schedule(&perturbed, kind);
        let warm =
            engine.reschedule_perturbed(&perturbed, &log, std::slice::from_ref(&perturbation));
        prop_assert_eq!(warm.events.len(), cold.events.len());
        for (i, (w, c)) in warm.events.iter().zip(&cold.events).enumerate() {
            prop_assert_eq!(w.sender, c.sender, "{} K={} event {}", kind, k, i);
            prop_assert_eq!(w.receiver, c.receiver, "{} K={} event {}", kind, k, i);
            prop_assert_eq!(
                w.start.as_secs().to_bits(),
                c.start.as_secs().to_bits(),
                "{} K={} event {} start",
                kind, k, i
            );
            prop_assert_eq!(
                w.arrival.as_secs().to_bits(),
                c.arrival.as_secs().to_bits(),
                "{} K={} event {} arrival",
                kind, k, i
            );
        }
    }
}

/// Deterministic cross-check at the acceptance scale: every policy × every K
/// replays one worsened link on the 100-cluster grid bit-identically.
#[test]
fn every_policy_and_k_replays_the_acceptance_grid() {
    let grid = random_grid(100, 0);
    let message = MessageSize::from_mib(1);
    let base = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
    let perturbation = Perturbation::DegradeLink {
        from: ClusterId(7),
        to: ClusterId(42),
        factor: 3.0,
    };
    let mut proot = ClusterId(0);
    let cur = perturbation
        .apply(&grid, &mut proot)
        .expect("a degraded link changes the grid");
    let perturbed = BroadcastProblem::from_grid(&cur, proot, message);
    for k in K_SWEEP {
        let mut engine = ScheduleEngine::with_k_best(k);
        for kind in HeuristicKind::all() {
            let (_, log) = engine.schedule_logged(&base, kind);
            let cold = engine.schedule(&perturbed, kind);
            let warm = engine.reschedule_perturbed(&perturbed, &log, &[perturbation]);
            assert_schedules_bit_identical(&warm, &cold, &format!("{kind} K={k}"));
        }
    }
}

/// Exact replay-telemetry pins: how far each policy's baseline log survives
/// a single worsened link on the 100-cluster acceptance grid. The three
/// counters always sum to the 99 commits of the schedule; the split is a
/// deterministic function of the replay regimes (gap-blind policies replay
/// everything verbatim, monotone policies repair suspects in place, checked
/// policies recompute from the first commit that exposes dirty state).
#[test]
fn telemetry_pins_on_the_acceptance_grid() {
    let grid = random_grid(100, 0);
    let message = MessageSize::from_mib(1);
    let base = BroadcastProblem::from_grid(&grid, ClusterId(0), message);
    let perturbation = Perturbation::DegradeLink {
        from: ClusterId(7),
        to: ClusterId(42),
        factor: 3.0,
    };
    let mut proot = ClusterId(0);
    let cur = perturbation
        .apply(&grid, &mut proot)
        .expect("a degraded link changes the grid");
    let perturbed = BroadcastProblem::from_grid(&cur, proot, message);
    // (replayed, repaired, recomputed) per policy. Gap-blind policies (Flat
    // Tree, FEF) replay all 99 commits verbatim; the minimising ECEF family
    // repairs the handful of commits touching the dirty sender in place; the
    // maximising BottomUp stays in checked mode and recomputes from the round
    // the dirty cluster joins the sender set.
    let expected: [(u64, u64, u64); 7] = [
        (99, 0, 0),  // Flat Tree
        (99, 0, 0),  // FEF
        (98, 1, 0),  // ECEF
        (97, 2, 0),  // ECEF-LA
        (95, 4, 0),  // ECEF-LAT
        (85, 14, 0), // ECEF-LAt
        (1, 0, 98),  // BottomUp
    ];
    let mut engine = ScheduleEngine::new();
    for (kind, (replayed, repaired, recomputed)) in HeuristicKind::all().iter().zip(expected) {
        let kind = *kind;
        let (_, log) = engine.schedule_logged(&base, kind);
        engine.take_telemetry();
        let _ = engine.reschedule_perturbed(&perturbed, &log, &[perturbation]);
        let t = engine.take_telemetry();
        assert_eq!(
            (t.replayed_commits, t.repaired_commits, t.recomputed_commits),
            (replayed, repaired, recomputed),
            "{kind}: replay telemetry moved"
        );
        assert_eq!(
            t.replayed_commits + t.repaired_commits + t.recomputed_commits,
            99,
            "{kind}: counters must cover every commit"
        );
    }
}
