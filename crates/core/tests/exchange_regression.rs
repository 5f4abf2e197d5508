//! Pins the exchange scheduler's lazy-invalidation behaviour.
//!
//! `ScheduleEngine::schedule_transfers` replaced an O(T²) rescan-per-commit
//! with a lazy-invalidation heap; a plausible-looking edit can silently
//! degrade it back towards quadratic work without failing any correctness
//! test (schedules stay byte-identical to the retained oracle — only the work
//! done changes). This test pins the exact telemetry on deterministic
//! all-to-all workloads and gates the growth so such a regression turns a
//! build red instead of a future scaling sweep.

use gridcast_core::{alltoall_transfer_set, ScheduleEngine, TransferSet};
use gridcast_plogp::MessageSize;
use gridcast_topology::GridGenerator;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The all-to-all transfer set of a random Table 2 grid, 4 KiB per node pair:
/// the workload of the experiments crate's exchange-scheduler panel.
fn alltoall(clusters: usize, seed: u64) -> TransferSet {
    let grid = GridGenerator::table2().generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed));
    alltoall_transfer_set(&grid, MessageSize::from_kib(4))
}

/// Exact pins on the 64-cluster all-to-all (T = 4032): total heap pops and
/// the re-keys among them. Deterministic — drift means the lazy-invalidation
/// logic changed. If the change is an intentional improvement, re-pin; if
/// the numbers grew sharply, the heap regressed towards the oracle's full
/// rescans.
const PINNED_POPS_64: u64 = 226_675;
const PINNED_REINSERTS_64: u64 = 222_643;

#[test]
fn exchange_heap_work_is_pinned_and_sub_quadratic() {
    let mut engine = ScheduleEngine::new();
    engine.take_telemetry();

    let set = alltoall(64, 1000);
    let t64 = set.transfers().len() as u64;
    assert_eq!(t64, 64 * 63);
    let _ = engine.schedule_transfers(&set);
    let tel = engine.take_telemetry();
    assert_eq!(tel.exchange_commits, t64);
    assert_eq!(
        tel.exchange_pops,
        tel.exchange_commits + tel.exchange_reinserts,
        "every pop either commits or re-keys a stale entry"
    );
    assert_eq!(
        (tel.exchange_pops, tel.exchange_reinserts),
        (PINNED_POPS_64, PINNED_REINSERTS_64),
        "exchange telemetry drifted on the pinned 64-cluster all-to-all"
    );

    // The oracle's scan count is exactly T·(T+1)/2 — the quadratic yardstick
    // the heap is measured against: ~36x more work at 64 clusters already.
    let _ = engine.schedule_transfers_quadratic(&set);
    let oracle = engine.take_telemetry();
    assert_eq!(oracle.exchange_oracle_scans, t64 * (t64 + 1) / 2);
    assert!(
        tel.exchange_pops * 20 < oracle.exchange_oracle_scans,
        "the heap should do at least 20x less work than the oracle at 64 clusters"
    );

    // Growth gate at ≥200 clusters: doubling the cluster count quadruples T,
    // so quadratic work would grow ~16x per step. The heap's observed work is
    // ~O(T^1.5) on dense all-to-alls (~7.8x per step); the gate leaves margin
    // for workload drift but fails anything near-quadratic.
    let mut pops = Vec::new();
    for clusters in [100usize, 200] {
        let set = alltoall(clusters, 2000 + clusters as u64);
        let _ = engine.schedule_transfers(&set);
        let tel = engine.take_telemetry();
        let t = set.transfers().len() as u64;
        assert_eq!(tel.exchange_commits, t);
        // Far below the oracle's T·(T+1)/2 at this size.
        assert!(
            tel.exchange_pops < t * t / 8,
            "{clusters} clusters: {} pops vs T²/8 = {}",
            tel.exchange_pops,
            t * t / 8
        );
        pops.push(tel.exchange_pops);
    }
    let growth = pops[1] as f64 / pops[0] as f64;
    assert!(
        growth < 12.0,
        "exchange heap work grew {growth:.2}x from 100 to 200 clusters (quadratic-in-T would be ~16x)"
    );
}
