//! Byte-exact wire pins of the daemon.
//!
//! `golden/transcript_12.txt` holds the responses to [`transcript_batches`]
//! — cold fills, hits, warm replays of every link-touching perturbation kind
//! (single links, uplinks, relays, overlapping site + link chains with
//! factors on both sides of 1), the cold fall-backs (`scale_all_links`,
//! `alternate_root`), pinned heuristics, inline and named grids, and
//! `execute` + `include_schedule` on each of those paths — as the daemon
//! answered them before its serving path was reworked for speed. Any change
//! to how a response is produced must leave every byte of it unchanged, for
//! any worker count.
//!
//! `golden/transcript_12_capacity_3.txt` holds the responses to the same
//! batches from a daemon whose schedule cache keeps three entries, recorded
//! before the cache gained its request-key index. Under that pressure most
//! entries are evicted before they are asked for again, so it pins the
//! two-tier eviction order and the hit/warm/cold label of every line.
//!
//! The per-heuristic tests pin the schedule of every cold and warm answer
//! against an independent [`ScheduleEngine::schedule`] of the same problem.

use gridcast_core::{BroadcastProblem, HeuristicKind, Perturbation, ScheduleEngine};
use gridcast_plogp::{MessageSize, Time};
use gridcast_serve::wire::{self, OkResponse};
use gridcast_serve::{Server, ServerConfig};
use gridcast_topology::{ClusterId, Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize as _, Value};

const GOLDEN: &str = include_str!("golden/transcript_12.txt");
const GOLDEN_CAPACITY_3: &str = include_str!("golden/transcript_12_capacity_3.txt");

/// The 12-cluster Table 2 grid every transcript line schedules on (unless it
/// names another grid).
const G: &str = r#""grid":{"table2":{"clusters":12,"seed":5,"cluster_size":4}}"#;

fn table2_12() -> Grid {
    GridGenerator::table2()
        .cluster_size(4)
        .generate(12, &mut ChaCha8Rng::seed_from_u64(5))
}

/// A small inline grid document, so the transcript also covers grids that
/// arrive in full on the wire.
fn inline_grid() -> String {
    let grid = GridGenerator::table2()
        .cluster_size(3)
        .generate(6, &mut ChaCha8Rng::seed_from_u64(21));
    let doc = Value::Map(vec![("inline".into(), grid.to_value())]);
    serde_json::to_string(&doc).unwrap()
}

fn link(from: usize, to: usize, factor: f64) -> String {
    format!(r#"{{"kind":"degrade_link","from":{from},"to":{to},"factor":{factor:?}}}"#)
}

fn uplink(cluster: usize, factor: f64) -> String {
    format!(r#"{{"kind":"degrade_uplink","cluster":{cluster},"factor":{factor:?}}}"#)
}

fn site(first: usize, span: usize, factor: f64) -> String {
    format!(r#"{{"kind":"degrade_site","first":{first},"span":{span},"factor":{factor:?}}}"#)
}

fn relay(cluster: usize) -> String {
    format!(r#"{{"kind":"drop_relay","cluster":{cluster}}}"#)
}

fn scale(factor: f64) -> String {
    format!(r#"{{"kind":"scale_all_links","factor":{factor:?}}}"#)
}

fn reroot(root: usize) -> String {
    format!(r#"{{"kind":"alternate_root","root":{root}}}"#)
}

const EXEC: &str = r#","execute":true,"include_schedule":true"#;

/// One request line: `extra` is spliced in after the root.
fn req(id: u64, grid: &str, root: usize, extra: &str) -> String {
    format!(r#"{{"id":{id},{grid},"root":{root}{extra}}}"#)
}

fn chain(perturbations: &[String]) -> String {
    format!(r#","perturbations":[{}]"#, perturbations.join(","))
}

/// The pinned transcript, as the batches it is served in. The comment on
/// each line is how the daemon produces its answer.
fn transcript_batches() -> Vec<Vec<String>> {
    let mib2 = r#","payload_bytes":2097152"#;
    let inline = inline_grid();
    let inline = format!(r#""grid":{inline}"#);
    let named = r#""grid":"grid5000_table3""#;
    vec![
        // Cold fill.
        vec![req(1, G, 0, "")],
        vec![
            req(2, G, 0, ""),                         // hit
            req(3, G, 2, &format!("{mib2}{EXEC}")),   // cold + execute
            req(4, G, 0, &chain(&[link(1, 4, 3.0)])), // warm link
            // Warm uplink.
            req(
                5,
                G,
                0,
                &format!("{},\"include_schedule\":true", chain(&[uplink(3, 2.5)])),
            ),
            req(6, G, 0, &format!("{}{EXEC}", chain(&[relay(5)]))), // warm relay + execute
        ],
        vec![
            // Warm chain: a site and a link inside it, factors on both sides of 1.
            req(7, G, 0, &chain(&[site(2, 3, 2.0), link(3, 7, 0.5)])),
            // Warm chain on the 2 MiB base, the site clipped at the grid's edge.
            req(
                8,
                G,
                2,
                &format!(
                    "{mib2}{}{EXEC}",
                    chain(&[link(3, 2, 0.25), site(9, 3, 4.0)])
                ),
            ),
            req(9, G, 0, &chain(&[scale(1.7)])), // cold fall-back
            req(10, G, 0, &chain(&[reroot(6)])), // cold fall-back
            req(11, G, 0, &format!("{}{EXEC}", chain(&[scale(0.6)]))), // cold + execute
            // Cold, the root moved.
            req(
                12,
                G,
                0,
                &format!("{}{EXEC}", chain(&[link(1, 4, 3.0), reroot(7)])),
            ),
        ],
        vec![
            req(13, G, 0, r#","heuristic":"ECEF-LA""#), // pinned: warm from the entry's own logs
            req(14, G, 0, &format!(r#","heuristic":"FEF"{EXEC}"#)), // pinned + execute
            req(15, G, 0, &chain(&[link(1, 4, 3.0)])),  // hit on a warm-produced entry
            // A warm-produced entry holds no logs: execute or a new pin is cold.
            req(
                16,
                G,
                0,
                &format!(r#"{},"execute":true"#, chain(&[link(1, 4, 3.0)])),
            ),
            req(
                17,
                G,
                0,
                &format!(
                    r#"{},"heuristic":"BottomUp","include_schedule":true"#,
                    chain(&[uplink(3, 2.5)])
                ),
            ),
            req(18, G, 2, &format!("{mib2}{EXEC}")), // hit with execute
            req(19, G, 0, &format!("{}{EXEC}", chain(&[relay(5)]))), // hit with execute
            req(20, G, 0, r#","heuristic":"ECEF-LA""#), // pin 13 not merged yet: warm
        ],
        vec![
            req(21, G, 5, ""),                          // cold
            req(22, G, 5, ""), // the same problem in the same batch: cold again
            req(23, G, 5, &chain(&[link(5, 0, 2.0)])), // base not merged yet: cold
            req(24, G, 0, &chain(&[site(0, 12, 1.5)])), // warm, every row dirty
            req(25, G, 0, &chain(&[uplink(0, 0.5)])), // warm, improving
            // Pinned: warm from the entry's own logs.
            req(
                26,
                G,
                0,
                r#","heuristic":"Flat Tree","include_schedule":true"#,
            ),
        ],
        vec![
            // The perturbed problem's own cold entry holds logs: warm, clean delta.
            req(27, G, 5, &format!("{}{EXEC}", chain(&[link(5, 0, 2.0)]))),
            req(28, G, 5, &format!("{}{EXEC}", chain(&[link(5, 0, 2.5)]))), // warm + execute
            req(29, &inline, 1, r#","include_schedule":true"#),             // inline cold
            req(30, G, 99, ""),                                             // error
            req(31, named, 0, ""),                                          // named cold
        ],
        vec![
            req(32, &inline, 1, r#","include_schedule":true"#), // inline hit
            // Inline and named warm chains.
            req(
                33,
                &inline,
                1,
                &format!("{}{EXEC}", chain(&[link(0, 2, 2.0), uplink(4, 0.75)])),
            ),
            req(
                34,
                named,
                0,
                &format!("{}{EXEC}", chain(&[site(1, 2, 3.0), link(2, 0, 1.25)])),
            ),
            req(
                35,
                named,
                0,
                &format!("{}{EXEC}", chain(&[relay(3), link(3, 1, 0.5)])),
            ),
            req(36, named, 0, &chain(&[uplink(2, 1.0)])), // factor 1: the base problem, a hit
        ],
    ]
}

fn serve_transcript(workers: usize, cache_capacity: usize) -> Vec<String> {
    let mut server = Server::new(ServerConfig {
        workers,
        cache_capacity,
        ..ServerConfig::default()
    });
    transcript_batches()
        .iter()
        .flat_map(|batch| server.handle_batch(batch).0)
        .collect()
}

/// Serves the transcript at 1 and 3 workers and compares every line with
/// `golden`.
fn assert_transcript(golden: &str, cache_capacity: usize) {
    let golden: Vec<&str> = golden.lines().collect();
    for workers in [1, 3] {
        let served = serve_transcript(workers, cache_capacity);
        assert_eq!(served.len(), golden.len(), "{workers} workers");
        for (i, (got, want)) in served.iter().zip(&golden).enumerate() {
            assert_eq!(got, want, "line {} at {workers} workers", i + 1);
        }
    }
}

#[test]
fn transcript_matches_the_golden_bytes_at_one_and_three_workers() {
    assert_transcript(GOLDEN, ServerConfig::default().cache_capacity);
}

#[test]
fn transcript_under_cache_pressure_matches_the_golden_bytes() {
    assert_transcript(GOLDEN_CAPACITY_3, 3);
}

/// The `schedule` field of a response, or of `events` rendered the same way.
fn schedule_field(response: &str) -> Value {
    let doc: Value = serde_json::from_str(response).unwrap();
    doc.field("schedule")
        .unwrap_or_else(|| panic!("no schedule in {response}"))
        .clone()
}

fn rendered(events: Vec<gridcast_core::ScheduleEvent>) -> Value {
    schedule_field(&wire::render_ok(&OkResponse {
        id: None,
        heuristic: "",
        predicted: Time::ZERO,
        cache: "",
        schedule: Some(events),
        simulated: None,
    }))
}

#[test]
fn pinned_schedules_match_an_independent_engine_cold_and_warm() {
    let grid = table2_12();
    let payload = MessageSize::from_mib(1);
    let root = ClusterId(3);
    let chain_of = [
        Perturbation::DegradeSite {
            first: ClusterId(2),
            span: 3,
            factor: 2.0,
        },
        Perturbation::DegradeLink {
            from: ClusterId(3),
            to: ClusterId(7),
            factor: 0.5,
        },
    ];
    let mut perturbed = grid.clone();
    let mut perturbed_root = root;
    for p in &chain_of {
        if let Some(g) = p.apply(&perturbed, &mut perturbed_root) {
            perturbed = g;
        }
    }
    let base_problem = BroadcastProblem::from_grid(&grid, root, payload);
    let warm_problem = BroadcastProblem::from_grid(&perturbed, perturbed_root, payload);
    let mut engine = ScheduleEngine::new();

    for kind in HeuristicKind::all() {
        let mut server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let pin = format!(r#","heuristic":"{}","include_schedule":true"#, kind.name());
        let cold = server.handle_batch(&[req(1, G, 3, &pin)]).0.remove(0);
        assert!(cold.contains(r#""cache":"cold""#), "{kind}: {cold}");
        let expected = engine.schedule(&base_problem, kind).events;
        assert_eq!(schedule_field(&cold), rendered(expected), "{kind} cold");

        let line = req(
            2,
            G,
            3,
            &format!("{}{pin}", chain(&[site(2, 3, 2.0), link(3, 7, 0.5)])),
        );
        let warm = server.handle_batch(&[line]).0.remove(0);
        assert!(warm.contains(r#""cache":"warm""#), "{kind}: {warm}");
        let expected = engine.schedule(&warm_problem, kind).events;
        assert_eq!(schedule_field(&warm), rendered(expected), "{kind} warm");
    }
}
