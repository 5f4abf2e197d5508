//! End-to-end tests of the serving daemon: golden transcripts, worker-count
//! bit-identity, cache/warm-start consistency and graceful rejection.

use gridcast_core::{warm_eligible, BroadcastProblem, Perturbation};
use gridcast_plogp::MessageSize;
use gridcast_serve::wire::MAX_PERTURBATIONS;
use gridcast_serve::{Server, ServerConfig};
use gridcast_simulator::{Scenario, WhatIfRunner};
use gridcast_topology::{ClusterId, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize as _, Value};
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

fn batch(server: &mut Server, lines: &[&str]) -> Vec<String> {
    let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let (responses, _) = server.handle_batch(&lines);
    responses
}

fn one(server: &mut Server, line: &str) -> String {
    batch(server, &[line]).remove(0)
}

const TABLE2_5: &str = r#""grid":{"table2":{"clusters":5,"seed":11,"cluster_size":4}}"#;

#[test]
fn golden_transcript_control_and_error_lines() {
    let mut server = Server::new(config(2));
    // Control lines and rejections have fully deterministic response bytes.
    assert_eq!(
        one(&mut server, r#"{"cmd":"shutdown"}"#),
        r#"{"status":"ok","msg":"shutting down"}"#
    );
    assert_eq!(
        one(&mut server, r#"{"grid":"atlantis_cluster"}"#),
        r#"{"status":"error","error":"unknown topology `atlantis_cluster` (the daemon knows \"grid5000_table3\")"}"#
    );
    assert_eq!(
        one(
            &mut server,
            r#"{"id":3,"grid":"grid5000_table3","root":99}"#
        ),
        r#"{"id":3,"status":"error","error":"root 99 out of range for a grid of 6 clusters"}"#
    );
    let truncated = one(&mut server, "{");
    assert!(
        truncated.starts_with(r#"{"status":"error","error":"invalid JSON: json error:"#),
        "unexpected rejection shape: {truncated}"
    );
    let stats = one(&mut server, r#"{"cmd":"stats"}"#);
    assert!(stats.starts_with(r#"{"status":"ok","stats":{"requests":5,"ok":0,"errors":3"#));
}

#[test]
fn scheduling_responses_have_the_documented_shape() {
    let mut server = Server::new(config(2));
    let line = format!(
        r#"{{"id":1,{TABLE2_5},"heuristic":"ECEF","include_schedule":true,"execute":true}}"#
    );
    let response = one(&mut server, &line);
    assert!(response.starts_with(r#"{"id":1,"status":"ok","heuristic":"ECEF","predicted_secs":"#));
    assert!(response.contains(r#""cache":"cold""#));
    assert!(response.contains(r#""schedule":[{"sender":"#));
    assert!(response.contains(r#""simulated_secs":"#));
    assert!(response.contains(r#""sim_events":"#));
    // 5 clusters → 4 inter-cluster transfers.
    assert_eq!(response.matches(r#""sender":"#).count(), 4);
}

#[test]
fn transcripts_are_deterministic_across_fresh_servers() {
    let lines: Vec<String> = vec![
        format!(r#"{{"id":1,{TABLE2_5},"include_schedule":true}}"#),
        format!(r#"{{"id":2,{TABLE2_5},"heuristic":"FEF"}}"#),
        format!(
            r#"{{"id":3,{TABLE2_5},"perturbations":[{{"kind":"degrade_link","from":0,"to":1,"factor":4.0}}],"include_schedule":true,"execute":true}}"#
        ),
        r#"{"id":4,"grid":"grid5000_table3","payload_bytes":65536}"#.to_string(),
    ];
    let run = |workers: usize| -> Vec<String> {
        let mut server = Server::new(config(workers));
        let (responses, _) = server.handle_batch(&lines);
        responses
    };
    let reference = run(1);
    for workers in [2, 3, 8] {
        assert_eq!(run(workers), reference, "worker count {workers} diverged");
    }
}

#[test]
fn serve_loop_batches_answers_in_order_and_honours_shutdown() {
    let request = format!(r#"{{"id":10,{TABLE2_5}}}"#);
    let input = format!(
        "{request}\n{}\n{}\n{}\n",
        r#"{"cmd":"stats"}"#, r#"{"id":11,"grid":"grid5000_table3"}"#, r#"{"cmd":"shutdown"}"#,
    );
    let mut server = Server::new(config(2));
    let mut output = Vec::new();
    server
        .serve(Cursor::new(input.into_bytes()), &mut output)
        .unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one response per pre-shutdown line: {text}");
    assert!(lines[0].starts_with(r#"{"id":10,"status":"ok""#));
    assert!(lines[1].starts_with(r#"{"status":"ok","stats":"#));
    assert!(lines[2].starts_with(r#"{"id":11,"status":"ok""#));
    assert_eq!(lines[3], r#"{"status":"ok","msg":"shutting down"}"#);
}

#[test]
fn cached_response_is_bit_identical_to_the_cold_run() {
    let mut server = Server::new(config(3));
    let line = format!(r#"{{{TABLE2_5},"include_schedule":true,"execute":true}}"#);
    let cold = one(&mut server, &line);
    let hit = one(&mut server, &line);
    assert!(cold.contains(r#""cache":"cold""#));
    assert!(hit.contains(r#""cache":"hit""#));
    assert_eq!(hit, cold.replace(r#""cache":"cold""#, r#""cache":"hit""#));
    assert_eq!(server.stats().cache_hits, 1);
    assert_eq!(server.stats().cold_runs, 1);
}

#[test]
fn warm_start_response_is_bit_identical_to_a_cold_run() {
    let perturbed = format!(
        r#"{{{TABLE2_5},"perturbations":[{{"kind":"degrade_link","from":0,"to":2,"factor":3.0}}],"include_schedule":true,"execute":true}}"#
    );

    // Server A: populate the cache with the unperturbed baseline, then ask
    // for the perturbed neighbour — it must warm-start from the logs.
    let mut warm_server = Server::new(config(2));
    let base = format!(r#"{{{TABLE2_5}}}"#);
    one(&mut warm_server, &base);
    let warm = one(&mut warm_server, &perturbed);
    assert!(warm.contains(r#""cache":"warm""#), "expected warm: {warm}");
    assert_eq!(warm_server.stats().warm_starts, 1);

    // Server B: the same perturbed request cold, from scratch.
    let mut cold_server = Server::new(config(2));
    let cold = one(&mut cold_server, &perturbed);
    assert!(cold.contains(r#""cache":"cold""#));

    assert_eq!(warm, cold.replace(r#""cache":"cold""#, r#""cache":"warm""#));
}

/// The daemon and the what-if runner share one pricing pass (tie-break and
/// winner's events) and one node-level execution: for every perturbation
/// kind the wire accepts, a daemon answer with `"execute":true`, cold or
/// warm from a cached base, names the runner's winner with the runner's
/// predicted and simulated bits.
#[test]
fn the_daemon_and_the_what_if_runner_answer_alike() {
    const GRID: &str = r#""grid":{"table2":{"clusters":12,"seed":5,"cluster_size":4}}"#;
    let grid = GridGenerator::table2()
        .cluster_size(4)
        .generate(12, &mut ChaCha8Rng::seed_from_u64(5));
    let c = ClusterId;
    let chains = [
        (
            r#"{"kind":"degrade_link","from":0,"to":3,"factor":4.0}"#,
            Perturbation::DegradeLink {
                from: c(0),
                to: c(3),
                factor: 4.0,
            },
        ),
        (
            r#"{"kind":"degrade_uplink","cluster":2,"factor":3.0}"#,
            Perturbation::DegradeUplink {
                cluster: c(2),
                factor: 3.0,
            },
        ),
        (
            r#"{"kind":"degrade_site","first":4,"span":3,"factor":2.5}"#,
            Perturbation::DegradeSite {
                first: c(4),
                span: 3,
                factor: 2.5,
            },
        ),
        (
            r#"{"kind":"drop_relay","cluster":1}"#,
            Perturbation::DropRelay { cluster: c(1) },
        ),
        (
            r#"{"kind":"scale_all_links","factor":0.5}"#,
            Perturbation::ScaleAllLinks { factor: 0.5 },
        ),
        (
            r#"{"kind":"alternate_root","root":5}"#,
            Perturbation::AlternateRoot { root: c(5) },
        ),
    ];
    let scenarios: Vec<Scenario> = chains.iter().map(|&(_, p)| Scenario::one(p)).collect();
    let runner = WhatIfRunner::new(&grid, MessageSize::from_mib(1), c(0)).with_threads(1);
    let cold_reports = runner.clone().run(&scenarios);
    let warm_reports = runner.with_warm_start(true).run(&scenarios);
    let base = format!(r#"{{{GRID},"root":0}}"#);
    for (i, (json, p)) in chains.iter().enumerate() {
        let line = format!(r#"{{{GRID},"root":0,"perturbations":[{json}],"execute":true}}"#);
        let cold = one(&mut Server::new(config(1)), &line);
        let mut warm_server = Server::new(config(1));
        one(&mut warm_server, &base);
        let warm = one(&mut warm_server, &line);
        let label = if warm_eligible(&[*p]) { "warm" } else { "cold" };
        for (response, expected) in [(&cold, "cold"), (&warm, label)] {
            let doc: Value = serde_json::from_str(response).unwrap();
            assert_eq!(doc.field("cache"), Some(&Value::Str(expected.into())));
            let bits = |name: &str| match doc.field(name) {
                Some(&Value::F64(secs)) => secs.to_bits(),
                other => panic!("{json}: `{name}` is {other:?}"),
            };
            for report in [&cold_reports[i], &warm_reports[i]] {
                assert_eq!(
                    doc.field("heuristic"),
                    Some(&Value::Str(report.best.name().into())),
                    "{json}: {response}"
                );
                assert_eq!(bits("predicted_secs"), report.predicted.as_secs().to_bits());
                assert_eq!(bits("simulated_secs"), report.simulated.as_secs().to_bits());
            }
        }
    }
}

#[test]
fn pinned_heuristic_is_honoured_on_every_path() {
    let mut server = Server::new(config(2));
    for expected in ["Flat Tree", "BottomUp", "ECEF-LAt"] {
        let line = format!(
            r#"{{{TABLE2_5},"heuristic":{}}}"#,
            serde_json::to_string(&Value::Str(expected.into())).unwrap()
        );
        let response = one(&mut server, &line);
        assert!(
            response.contains(&format!(r#""heuristic":"{expected}""#)),
            "pin {expected} ignored: {response}"
        );
    }
    // The unpinned answer picks the best predicted makespan and also caches.
    let free = one(&mut server, &format!(r#"{{{TABLE2_5}}}"#));
    assert!(free.contains(r#""status":"ok""#));
}

#[test]
fn inline_grids_differing_in_one_link_never_share_a_cache_entry() {
    let base = GridGenerator::table2()
        .cluster_size(4)
        .generate(5, &mut ChaCha8Rng::seed_from_u64(7));
    // Identical grid except one directed link's gap nudged by one part in 2^40.
    let mut nudged = base.clone();
    let link = base.link(ClusterId(1), ClusterId(3));
    nudged.set_link(
        ClusterId(1),
        ClusterId(3),
        link.with_scaled_gap(1.0 + 1.0 / (1u64 << 40) as f64),
    );
    assert_ne!(base, nudged);

    // The cache key must separate them (content digest + full equality).
    let pa = BroadcastProblem::from_grid(&base, ClusterId(0), MessageSize::from_mib(1));
    let pb = BroadcastProblem::from_grid(&nudged, ClusterId(0), MessageSize::from_mib(1));
    assert_ne!(pa.content_digest(), pb.content_digest());

    let request = |grid: &gridcast_topology::Grid| {
        serde_json::to_string(&Value::Map(vec![
            (
                "grid".into(),
                Value::Map(vec![("inline".into(), grid.to_value())]),
            ),
            ("include_schedule".into(), Value::Bool(true)),
        ]))
        .unwrap()
    };

    let mut server = Server::new(config(2));
    let ra1 = one(&mut server, &request(&base));
    let rb = one(&mut server, &request(&nudged));
    let ra2 = one(&mut server, &request(&base));
    // Both problems ran cold (no false sharing), and the repeat of the first
    // is a genuine hit that reproduces its cold answer.
    assert!(ra1.contains(r#""cache":"cold""#));
    assert!(
        rb.contains(r#""cache":"cold""#),
        "nudged grid hit the cache of the base grid"
    );
    assert_eq!(server.stats().cold_runs, 2);
    assert_eq!(server.stats().cache_hits, 1);
    assert_eq!(ra2, ra1.replace(r#""cache":"cold""#, r#""cache":"hit""#));
}

#[test]
fn oversized_and_inadmissible_requests_are_rejected_gracefully() {
    let mut server = Server::new(ServerConfig {
        workers: 2,
        max_line_bytes: 256,
        max_clusters: 32,
        max_nodes: 100,
        ..ServerConfig::default()
    });

    // Oversized line.
    let huge = format!(r#"{{"grid":"{}"}}"#, "x".repeat(1024));
    let response = one(&mut server, &huge);
    assert!(response.contains(r#""status":"error""#));
    assert!(response.contains("exceeds the limit"));

    // Too many clusters.
    let response = one(&mut server, r#"{"grid":{"table2":{"clusters":1000}}}"#);
    assert!(response.contains("exceeds the admission limit"));

    // Cluster count admitted, node count not (20 × 16 = 320 > 100).
    let response = one(&mut server, r#"{"grid":{"table2":{"clusters":20}}}"#);
    assert!(response.contains("machines exceeds the admission limit"));

    // Inline grid with forged matrix dimensions.
    let response = one(
        &mut server,
        r#"{"grid":{"inline":{"clusters":[{"id":0,"name":"a","size":2,"intra":{"Fixed":{"broadcast_time":0.1}}}],"inter":{"n":5,"data":[]}}}}"#,
    );
    assert!(
        response.contains(r#""status":"error""#),
        "forged inline grid accepted: {response}"
    );

    // The server still works after every rejection.
    let ok = one(
        &mut server,
        r#"{"grid":{"table2":{"clusters":4,"cluster_size":4}}}"#,
    );
    assert!(ok.contains(r#""status":"ok""#));
    assert_eq!(server.stats().errors, 4);
}

#[test]
fn a_grid_refused_at_admission_stays_refused_on_a_repeat() {
    // 10 clusters of 30 000 machines pass the cluster limit but not the
    // machine limit of 2^18; the repeat must not be served from a memo.
    let mut server = Server::new(config(1));
    let line = r#"{"grid":{"table2":{"clusters":10,"seed":3,"cluster_size":30000}},"root":0}"#;
    let refusal = r#"{"status":"error","error":"grid of 300000 machines exceeds the admission limit of 262144"}"#;
    assert_eq!(one(&mut server, line), refusal);
    assert_eq!(one(&mut server, line), refusal);
    assert_eq!(server.stats().errors, 2);
    assert_eq!(server.stats().ok, 0);
}

#[test]
fn stats_count_hits_warms_and_colds() {
    let mut server = Server::new(config(2));
    let base = format!(r#"{{{TABLE2_5}}}"#);
    let perturbed = format!(
        r#"{{{TABLE2_5},"perturbations":[{{"kind":"degrade_uplink","cluster":1,"factor":2.0}}]}}"#
    );
    one(&mut server, &base); // cold
    one(&mut server, &base); // hit
    one(&mut server, &perturbed); // warm
    one(&mut server, &perturbed); // hit
    let stats = server.stats();
    assert_eq!(stats.cold_runs, 1);
    assert_eq!(stats.warm_starts, 1);
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.ok, 4);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.batches, 4);
    assert!(stats.latency.count() >= 4);

    let rendered = one(&mut server, r#"{"cmd":"stats"}"#);
    assert!(rendered.contains(r#""cache_hits":2,"warm_starts":1,"cold_runs":1"#));
}

#[test]
fn batched_duplicates_and_mixed_lines_answer_in_order() {
    let mut server = Server::new(config(4));
    let good = format!(r#"{{"id":1,{TABLE2_5}}}"#);
    let responses = batch(
        &mut server,
        &[&good, "garbage", &good, r#"{"cmd":"stats"}"#],
    );
    assert_eq!(responses.len(), 4);
    assert!(responses[0].starts_with(r#"{"id":1,"status":"ok""#));
    assert!(responses[1].starts_with(r#"{"status":"error""#));
    // Same problem, same batch: classified before the first result landed,
    // so both are cold — but bit-identical.
    assert_eq!(responses[2], responses[0]);
    assert!(responses[3].starts_with(r#"{"status":"ok","stats":"#));
}

#[test]
fn serve_skips_an_endless_line_without_buffering_it() {
    // 8 MiB without a newline, generated lazily, then a valid request on
    // the same stream: one oversize error, then a normal answer.
    let prefix = 8usize << 20;
    let request = format!("\n{{\"id\":5,{TABLE2_5}}}\n");
    let input = std::io::Read::chain(
        std::io::Read::take(std::io::repeat(b'x'), prefix as u64),
        Cursor::new(request.into_bytes()),
    );
    let mut server = Server::new(config(1));
    let mut output = Vec::new();
    server.serve(input, &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(
        lines[0],
        format!(
            r#"{{"status":"error","error":"request line of {prefix} bytes exceeds the limit of {}"}}"#,
            ServerConfig::default().max_line_bytes
        )
    );
    assert!(
        lines[1].starts_with(r#"{"id":5,"status":"ok""#),
        "{}",
        lines[1]
    );
    assert_eq!(server.stats().errors, 1);
}

#[test]
fn serve_accepts_a_line_at_the_limit_and_rejects_one_past_it() {
    let request = format!(r#"{{"id":6,{TABLE2_5}}}"#);
    let limit = request.len();
    // One real byte longer than the limit.
    let longer = format!(r#"{{"id":16,{TABLE2_5}}}"#);
    // Whitespace around a line does not count toward the limit, however
    // much of it there is; a blank line gets no answer.
    let blank = " ".repeat(3 * limit);
    let input = format!("{longer}\n{request}\r\n{blank}{request}\t{blank}\n{blank}\n{request}");
    let mut server = Server::new(ServerConfig {
        max_line_bytes: limit,
        ..config(1)
    });
    let mut output = Vec::new();
    server
        .serve(Cursor::new(input.into_bytes()), &mut output)
        .unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert_eq!(
        lines[0],
        format!(
            r#"{{"status":"error","error":"request line of {} bytes exceeds the limit of {limit}"}}"#,
            limit + 1
        )
    );
    // At the limit: a CRLF line, a padded line, and a last line without a
    // newline.
    for line in &lines[1..] {
        assert!(line.starts_with(r#"{"id":6,"status":"ok""#), "{line}");
    }
    assert_eq!(server.stats().errors, 1);
}

#[test]
fn perturbation_chains_are_capped_at_admission() {
    let link = r#"{"kind":"degrade_link","from":0,"to":1,"factor":1.01}"#;
    let request = |id: usize, len: usize| {
        let chain = vec![link; len].join(",");
        format!(r#"{{"id":{id},{TABLE2_5},"perturbations":[{chain}]}}"#)
    };
    let mut server = Server::new(config(1));
    let at_limit = one(&mut server, &request(1, MAX_PERTURBATIONS));
    assert!(
        at_limit.starts_with(r#"{"id":1,"status":"ok""#),
        "{at_limit}"
    );
    assert_eq!(
        one(&mut server, &request(2, MAX_PERTURBATIONS + 1)),
        format!(
            r#"{{"status":"error","error":"field `perturbations` holds {} entries; a request may chain at most {MAX_PERTURBATIONS}"}}"#,
            MAX_PERTURBATIONS + 1
        )
    );
}

/// A reader that counts the bytes the daemon has pulled from it.
struct CountingReader<R> {
    inner: R,
    consumed: Arc<AtomicUsize>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }
}

/// A writer whose first write reports the stall and blocks until released,
/// then counts the response lines.
struct StallingWriter {
    stalled: Option<mpsc::Sender<()>>,
    release: mpsc::Receiver<()>,
    lines: usize,
}

impl Write for StallingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(stalled) = self.stalled.take() {
            stalled.send(()).unwrap();
            self.release.recv().unwrap();
        }
        self.lines += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn serve_stops_reading_while_answers_are_not_read_back() {
    // A client that writes 2 MiB of requests and never reads its answers:
    // once the first response blocks, the daemon may hold the batch being
    // answered, one queued batch and the line in the reader's hand, plus
    // one `BufReader` buffer (8 KiB) — nothing more of the stream.
    let max_batch = 4;
    let line = format!("{}\n", "x".repeat(1023));
    let count = 2048;
    let consumed = Arc::new(AtomicUsize::new(0));
    let reader = CountingReader {
        inner: Cursor::new(line.repeat(count).into_bytes()),
        consumed: Arc::clone(&consumed),
    };
    let (stalled_tx, stalled) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let serving = std::thread::spawn(move || {
        let mut server = Server::new(ServerConfig {
            max_batch,
            ..config(1)
        });
        let mut writer = StallingWriter {
            stalled: Some(stalled_tx),
            release: release_rx,
            lines: 0,
        };
        server.serve(reader, &mut writer).unwrap();
        writer.lines
    });
    stalled.recv().unwrap();
    // The bound holds at every instant; the pause only gives a reader that
    // ignores backpressure time to run past it.
    std::thread::sleep(Duration::from_millis(300));
    let read = consumed.load(Ordering::SeqCst);
    let bound = (2 * max_batch + 1) * line.len() + 8 * 1024;
    assert!(
        read <= bound,
        "the reader consumed {read} bytes while the writer was stalled (bound {bound})"
    );
    release.send(()).unwrap();
    // Once the client reads again, every line is answered.
    assert_eq!(serving.join().unwrap(), count);
}
