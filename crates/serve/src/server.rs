//! The serving loop: admission, cache classification, engine-pool dispatch.
//!
//! A batch of request lines moves through five stages, all deterministic in
//! request order:
//!
//! 1. **Admission + parse** — oversized lines, malformed JSON and
//!    perturbation chains longer than [`wire::MAX_PERTURBATIONS`] become
//!    error responses for their line; nothing on the wire panics the daemon.
//!    A line is measured without its leading and trailing ASCII
//!    whitespace, and [`Server::serve`]'s reader never buffers more than
//!    [`ServerConfig::max_line_bytes`] bytes of it: the rest of a longer
//!    line is skipped as it streams in, and the line is answered with the
//!    oversize error. The reader stops reading while a full batch of lines
//!    waits to be served, so a fast client gets backpressure instead of
//!    growing the daemon's queue.
//! 2. **Resolution** — the grid spec is resolved (named topologies and
//!    generated grids are memoised; inline grids are consistency-checked),
//!    perturbations are validated against the grid, and the
//!    [`BroadcastProblem`] plus its content digest are built. A warm-eligible
//!    chain (no grid-wide scaling, no moved root) builds the base problem
//!    once and patches the links it touches into a copy of it
//!    ([`BroadcastProblem::perturbed`]); the perturbed grid is built only
//!    when the request asks to `execute` on it. Other chains apply to the
//!    grid and build the problem from the result.
//! 3. **Classification** — each problem is looked up in the schedule cache:
//!    a *hit* serves the stored answer, a perturbed neighbour of a cached
//!    cold run becomes a *warm* job replaying its commit logs, everything
//!    else is a *cold* job.
//! 4. **Dispatch** — the jobs are split into contiguous chunks, one per
//!    worker engine. The calling thread runs the first chunk and scoped
//!    threads run the others, so with one worker engine, or one job, the
//!    batch runs inline. Results land in per-job slots, so the response
//!    stream is bit-identical for any worker count. A job schedules once: a
//!    cold job takes the winner's events from the commit log of the pass
//!    that priced all seven heuristics, and a warm job keeps the winning
//!    replay's events from its seven-log pass.
//! 5. **Merge + render** — every waiting line is rendered, then the job
//!    results are moved into the cache in request order; every line gets
//!    exactly one response line.

use crate::cache::{CacheEntry, CacheOutcome, ScheduleCache, ScheduleRecord};
use crate::stats::ServerStats;
use crate::wire::{self, GridSpec, OkResponse, Request, RequestLine};
use gridcast_core::{
    BroadcastProblem, CommitLog, HeuristicKind, Perturbation, ReplayDelta, ScheduleEngine,
    ScheduleEvent,
};
use gridcast_plogp::Time;
use gridcast_simulator::{execute_plan_with_sink, NodeNetwork, NullSink, SendPlan};
use gridcast_topology::{grid5000_table3, ClusterId, Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker engines in the pool (≥ 1). Responses are bit-identical for any
    /// value; this only sets the dispatch parallelism.
    pub workers: usize,
    /// Schedule-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum accepted request-line length in bytes, not counting the
    /// line's leading and trailing whitespace (a CRLF line's `\r` is free);
    /// longer lines are rejected with an error response. [`Server::serve`]
    /// strips ASCII whitespace before measuring, so non-ASCII whitespace
    /// padding a line past the limit counts toward it.
    pub max_line_bytes: usize,
    /// Maximum requests dispatched per batch, and the number of lines
    /// [`Server::serve`]'s reader may queue ahead of the batch loop.
    pub max_batch: usize,
    /// Maximum clusters a requested grid may have.
    pub max_clusters: usize,
    /// Maximum total machines a requested grid may have.
    pub max_nodes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 4096,
            max_line_bytes: 1 << 20,
            max_batch: 64,
            max_clusters: 512,
            max_nodes: 1 << 18,
        }
    }
}

/// Memoised grid resolution: named topologies and generated Table 2 grids
/// are built once and shared. Inline grids are not memoised — their identity
/// lives in the problem digest, and callers sending full documents per line
/// get no benefit from a second copy.
#[derive(Debug, Default)]
struct GridCache {
    map: HashMap<GridCacheKey, Arc<Grid>>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GridCacheKey {
    Named(String),
    Table2 {
        clusters: usize,
        seed: u64,
        cluster_size: u32,
    },
}

impl GridCache {
    fn resolve(&mut self, spec: &GridSpec, config: &ServerConfig) -> Result<Arc<Grid>, String> {
        let grid = match spec {
            GridSpec::Named(name) => {
                let key = GridCacheKey::Named(name.clone());
                if let Some(grid) = self.map.get(&key) {
                    return Ok(Arc::clone(grid));
                }
                if name != "grid5000_table3" {
                    return Err(format!(
                        "unknown topology `{name}` (the daemon knows \"grid5000_table3\")"
                    ));
                }
                let grid = Arc::new(grid5000_table3());
                self.map.insert(key, Arc::clone(&grid));
                grid
            }
            GridSpec::Table2 {
                clusters,
                seed,
                cluster_size,
            } => {
                if *clusters > config.max_clusters {
                    return Err(format!(
                        "grid of {clusters} clusters exceeds the admission limit of {}",
                        config.max_clusters
                    ));
                }
                let key = GridCacheKey::Table2 {
                    clusters: *clusters,
                    seed: *seed,
                    cluster_size: *cluster_size,
                };
                if let Some(grid) = self.map.get(&key) {
                    return Ok(Arc::clone(grid));
                }
                let grid = Arc::new(
                    GridGenerator::table2()
                        .cluster_size(*cluster_size)
                        .generate(*clusters, &mut ChaCha8Rng::seed_from_u64(*seed)),
                );
                self.map.insert(key, Arc::clone(&grid));
                grid
            }
            // Already consistency-checked at parse time.
            GridSpec::Inline(grid) => Arc::new(grid.as_ref().clone()),
        };
        admit_grid(&grid, config)?;
        Ok(grid)
    }
}

fn admit_grid(grid: &Grid, config: &ServerConfig) -> Result<(), String> {
    if grid.num_clusters() > config.max_clusters {
        return Err(format!(
            "grid of {} clusters exceeds the admission limit of {}",
            grid.num_clusters(),
            config.max_clusters
        ));
    }
    let nodes: u64 = grid.clusters().iter().map(|c| u64::from(c.size)).sum();
    if nodes > config.max_nodes {
        return Err(format!(
            "grid of {nodes} machines exceeds the admission limit of {}",
            config.max_nodes
        ));
    }
    Ok(())
}

/// Range-checks a request's cluster references against the resolved grid, so
/// an out-of-range root or perturbation target is an error response instead
/// of an assertion failure deep in the engine.
fn validate_against_grid(req: &Request, n: usize) -> Result<(), String> {
    let check = |what: &str, c: ClusterId| {
        if c.index() < n {
            Ok(())
        } else {
            Err(format!(
                "{what} {} out of range for a grid of {n} clusters",
                c.index()
            ))
        }
    };
    check("root", req.root)?;
    for p in &req.perturbations {
        match *p {
            Perturbation::ScaleAllLinks { .. } => {}
            Perturbation::DegradeUplink { cluster, .. } | Perturbation::DropRelay { cluster } => {
                check("perturbation cluster", cluster)?;
            }
            Perturbation::DegradeLink { from, to, .. } => {
                check("perturbation cluster", from)?;
                check("perturbation cluster", to)?;
            }
            Perturbation::DegradeSite { first, span, .. } => {
                check("perturbation cluster", first)?;
                if span > n {
                    return Err(format!(
                        "perturbation span {span} out of range for a grid of {n} clusters"
                    ));
                }
            }
            Perturbation::TimeVaryingCapacity { from, to, .. } => {
                check("perturbation cluster", from)?;
                check("perturbation cluster", to)?;
            }
            Perturbation::AlternateRoot { root } => check("alternate root", root)?,
        }
    }
    Ok(())
}

/// The warm path only pays off when the perturbation leaves most commit
/// rows intact; mirrors the what-if runner's eligibility rule.
fn warm_eligible(perturbations: &[Perturbation]) -> bool {
    !perturbations.is_empty()
        && perturbations.iter().all(|p| {
            !matches!(
                p,
                Perturbation::ScaleAllLinks { .. } | Perturbation::AlternateRoot { .. }
            )
        })
}

/// The grid `chain` makes of `base` and the root it leaves, applied left to
/// right; `base` itself (shared, not copied) when no link changes.
fn perturbed_grid(
    base: &Arc<Grid>,
    root: ClusterId,
    chain: &[Perturbation],
) -> (Arc<Grid>, ClusterId) {
    let mut root = root;
    let mut grid = Arc::clone(base);
    for p in chain {
        if let Some(changed) = p.apply(&grid, &mut root) {
            grid = Arc::new(changed);
        }
    }
    (grid, root)
}

fn best_slot(makespans: &[Time]) -> usize {
    makespans
        .iter()
        .enumerate()
        .min_by(|(i, a), (j, b)| a.cmp(b).then(i.cmp(j)))
        .map(|(i, _)| i)
        .expect("the engine always evaluates all seven heuristics")
}

struct WarmStart {
    logs: Arc<Vec<CommitLog>>,
    delta: ReplayDelta,
}

struct Job {
    problem: BroadcastProblem,
    digest: u64,
    slot_pin: Option<usize>,
    warm: Option<WarmStart>,
    /// The (perturbed) grid to execute the answer on, when the request asked
    /// for execution.
    execute: Option<Arc<Grid>>,
}

struct JobOutput {
    makespans: Vec<Time>,
    logs: Option<Vec<CommitLog>>,
    slot: usize,
    events: Vec<ScheduleEvent>,
    simulated: Option<(Time, usize)>,
}

/// Runs one job with a single scheduling pass: the answer's events come from
/// the pass that priced every heuristic, never from scheduling the winner
/// again.
fn run_job(engine: &mut ScheduleEngine, job: &Job) -> JobOutput {
    let (makespans, logs, slot, events) = match &job.warm {
        Some(warm) => {
            // Keep the replay that `best_slot` (or the pin) will choose: the
            // first strictly smaller makespan wins, so ties go to the earlier
            // slot.
            let mut makespans = Vec::new();
            let mut events = Vec::new();
            let mut best: Option<(usize, Time)> = None;
            engine.warm_makespans_with(
                &job.problem,
                &warm.logs,
                &warm.delta,
                &mut makespans,
                |slot, makespan, replayed| {
                    let keep = match job.slot_pin {
                        Some(pin) => slot == pin,
                        None => best.is_none_or(|(_, b)| makespan < b),
                    };
                    if keep {
                        best = Some((slot, makespan));
                        events.clear();
                        events.extend_from_slice(replayed);
                    }
                },
            );
            let (slot, _) = best.expect("the pinned or best slot was replayed");
            (makespans, None, slot, events)
        }
        None => {
            let (makespans, logs) = engine.makespans_logged(&job.problem, &HeuristicKind::all());
            let slot = job.slot_pin.unwrap_or_else(|| best_slot(&makespans));
            let events = logs[slot].events().collect();
            (makespans, Some(logs), slot, events)
        }
    };
    let simulated = job.execute.as_ref().map(|grid| {
        let network = NodeNetwork::new(grid);
        let plan = SendPlan::from_inter_cluster_events(grid, job.problem.root, &events);
        let outcome = execute_plan_with_sink(
            &network,
            &plan,
            job.problem.message,
            Time::ZERO,
            &mut NullSink,
        );
        (outcome.completion, outcome.events_processed)
    });
    JobOutput {
        makespans,
        logs,
        slot,
        events,
        simulated,
    }
}

/// Runs a chunk of jobs on one engine, each output into its job's slot.
fn run_chunk(engine: &mut ScheduleEngine, jobs: &[Job], outputs: &mut [Option<JobOutput>]) {
    for (job, out) in jobs.iter().zip(outputs) {
        *out = Some(run_job(engine, job));
    }
}

/// What a request line is waiting on after classification.
enum Pending {
    /// Response already rendered (errors, control acks, cache hits).
    Ready(String),
    /// Waiting on the job with this index; rendering needs the request's
    /// echo fields.
    Job {
        job: usize,
        id: Option<u64>,
        include_schedule: bool,
        outcome: CacheOutcome,
    },
    /// Render the stats snapshot at the end of the batch, so it reflects
    /// the batch's own work.
    Stats,
}

/// One input line as [`Server::serve`]'s reader thread hands it over.
enum Incoming {
    /// A line stripped of its leading and trailing ASCII whitespace, at most
    /// `max_line_bytes` bytes long.
    Line(String),
    /// A longer line: only its stripped length in bytes was kept; its
    /// content was skipped as it streamed past.
    Oversize(usize),
}

/// Whether `b` is an ASCII byte `str::trim` strips.
fn is_blank(b: &u8) -> bool {
    b.is_ascii() && char::from(*b).is_whitespace()
}

/// Reads the next line from `reader`, `None` at the end of the stream. The
/// line is measured without its leading and trailing ASCII whitespace (a
/// CRLF line's `\r` included), the length the daemon's limit applies to.
/// Leading whitespace is skipped as it streams past and at most `limit`
/// bytes after it are kept: a line longer than `limit` is skipped up to and
/// including its newline and comes back as [`Incoming::Oversize`] with its
/// stripped length.
fn read_bounded_line(reader: &mut impl BufRead, limit: usize) -> std::io::Result<Option<Incoming>> {
    // The line from its first non-blank byte: up to `limit` bytes of it, its
    // length so far, and its length up to its last non-blank byte so far.
    let mut kept = Vec::new();
    let mut seen = 0;
    let mut len = 0;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let mut part = &chunk[..newline.unwrap_or(chunk.len())];
        if seen == 0 {
            part = &part[part.iter().position(|b| !is_blank(b)).unwrap_or(part.len())..];
        }
        if let Some(last) = part.iter().rposition(|b| !is_blank(b)) {
            len = seen + last + 1;
        }
        seen += part.len();
        let room = limit.saturating_sub(kept.len()).min(part.len());
        kept.extend_from_slice(&part[..room]);
        let used = newline.map_or(chunk.len(), |at| at + 1);
        reader.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if len > limit {
        return Ok(Some(Incoming::Oversize(len)));
    }
    kept.truncate(len);
    String::from_utf8(kept)
        .map(|line| Some(Incoming::Line(line)))
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
}

/// The scheduling daemon: engine pool + schedule cache + counters.
pub struct Server {
    config: ServerConfig,
    engines: Vec<ScheduleEngine>,
    cache: ScheduleCache,
    grids: GridCache,
    stats: ServerStats,
}

impl Server {
    /// A server with `config.workers` engines and an empty cache.
    pub fn new(config: ServerConfig) -> Self {
        let workers = config.workers.max(1);
        Server {
            engines: (0..workers).map(|_| ScheduleEngine::new()).collect(),
            cache: ScheduleCache::new(config.cache_capacity),
            grids: GridCache::default(),
            stats: ServerStats::default(),
            config,
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Handles one batch of request lines. Returns one response line per
    /// input line (same order, no trailing newlines) and whether a shutdown
    /// command was seen.
    pub fn handle_batch(&mut self, lines: &[String]) -> (Vec<String>, bool) {
        self.handle_lines(lines.iter().map(|line| Ok(line.as_str())))
    }

    /// [`Server::handle_batch`] over lines some of which the reader already
    /// refused: `Err(len)` stands for a line of `len` bytes that was longer
    /// than [`ServerConfig::max_line_bytes`] and never buffered.
    fn handle_lines<'a>(
        &mut self,
        lines: impl ExactSizeIterator<Item = Result<&'a str, usize>>,
    ) -> (Vec<String>, bool) {
        let started = Instant::now();
        let count = lines.len();
        let mut shutdown = false;
        let mut jobs: Vec<Job> = Vec::new();
        let mut pending: Vec<Pending> = Vec::with_capacity(count);

        for line in lines {
            self.stats.requests += 1;
            let p = match line {
                Ok(line) => self.classify_line(line, &mut jobs, &mut shutdown),
                Err(len) => self.reject_oversize(len),
            };
            pending.push(p);
        }

        self.dispatch_and_merge(jobs, &mut pending);

        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(count);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        for _ in 0..count {
            self.stats.latency.record(micros);
        }

        let responses = pending
            .into_iter()
            .map(|p| match p {
                Pending::Ready(line) => line,
                Pending::Stats => self.stats.render(),
                Pending::Job { .. } => {
                    unreachable!("every job was resolved by dispatch_and_merge")
                }
            })
            .collect();
        (responses, shutdown)
    }

    /// Stages 1–3 for one line: admission, parse, resolution, classification.
    fn classify_line(&mut self, line: &str, jobs: &mut Vec<Job>, shutdown: &mut bool) -> Pending {
        if line.len() > self.config.max_line_bytes {
            return self.reject_oversize(line.len());
        }
        let req = match wire::parse_line(line) {
            Ok(RequestLine::Schedule(req)) => req,
            Ok(RequestLine::Stats) => return Pending::Stats,
            Ok(RequestLine::Shutdown) => {
                *shutdown = true;
                return Pending::Ready(r#"{"status":"ok","msg":"shutting down"}"#.to_string());
            }
            Err(msg) => {
                self.stats.errors += 1;
                return Pending::Ready(wire::render_error(None, &msg));
            }
        };

        match self.classify_request(&req, jobs) {
            Ok(p) => p,
            Err(msg) => {
                self.stats.errors += 1;
                Pending::Ready(wire::render_error(req.id, &msg))
            }
        }
    }

    /// The error answer to a request line of `len` bytes, over the limit.
    fn reject_oversize(&mut self, len: usize) -> Pending {
        self.stats.errors += 1;
        Pending::Ready(wire::render_error(
            None,
            &format!(
                "request line of {len} bytes exceeds the limit of {}",
                self.config.max_line_bytes
            ),
        ))
    }

    fn classify_request(&mut self, req: &Request, jobs: &mut Vec<Job>) -> Result<Pending, String> {
        let base_grid = self.grids.resolve(&req.grid, &self.config)?;
        let n = base_grid.num_clusters();
        validate_against_grid(req, n)?;

        // A warm-eligible chain builds the base problem once — its digest is
        // the warm-base key below — and patches the touched links into a copy
        // of it, bit-identical to building from the perturbed grid. Other
        // chains (grid-wide scaling, a moved root) build the perturbed grid
        // and the problem from it.
        let (problem, base_problem, grid) = if warm_eligible(&req.perturbations) {
            let base = BroadcastProblem::from_grid(&base_grid, req.root, req.payload);
            let problem = base.perturbed(&base_grid, &req.perturbations);
            (problem, Some(base), None)
        } else {
            let (grid, root) = perturbed_grid(&base_grid, req.root, &req.perturbations);
            let problem = BroadcastProblem::from_grid(&grid, root, req.payload);
            (problem, None, Some(grid))
        };
        // The grid a job executes its answer on, built only for a job whose
        // request asks to execute.
        let execute = move || {
            req.execute.then(|| {
                grid.unwrap_or_else(|| perturbed_grid(&base_grid, req.root, &req.perturbations).0)
            })
        };
        let digest = problem.content_digest();
        let slot_pin = req
            .heuristic
            .map(|k| HeuristicKind::all().iter().position(|x| *x == k).unwrap());

        // A cached entry for the exact problem?
        if let Some(entry) = self.cache.get_mut(digest, &problem) {
            let slot = slot_pin.unwrap_or_else(|| best_slot(&entry.makespans));
            let complete = entry.records[slot]
                .as_ref()
                .is_some_and(|r| !req.execute || r.simulated.is_some());
            if complete {
                self.stats.cache_hits += 1;
                self.stats.ok += 1;
                let record = entry.records[slot].as_ref().unwrap();
                return Ok(Pending::Ready(wire::render_ok(&OkResponse {
                    id: req.id,
                    heuristic: HeuristicKind::all()[slot].name(),
                    predicted: entry.makespans[slot],
                    cache: CacheOutcome::Hit.label(),
                    schedule: req.include_schedule.then(|| record.events.clone()),
                    simulated: req.execute.then(|| record.simulated.unwrap()),
                })));
            }
            // The entry knows the makespans but not this slot's schedule
            // (or its simulation). Its own cold logs, replayed under a clean
            // delta, re-derive the schedule without a cold run.
            if let Some(logs) = entry.logs.clone() {
                self.stats.warm_starts += 1;
                jobs.push(Job {
                    problem,
                    digest,
                    slot_pin: Some(slot),
                    warm: Some(WarmStart {
                        logs,
                        delta: ReplayDelta::clean(n),
                    }),
                    execute: execute(),
                });
                return Ok(Pending::Job {
                    job: jobs.len() - 1,
                    id: req.id,
                    include_schedule: req.include_schedule,
                    outcome: CacheOutcome::Warm,
                });
            }
        } else if let Some(base_problem) = base_problem {
            // Not cached — but the *unperturbed* neighbour might be, with
            // commit logs to warm-start from. (Warm-eligible chains never
            // move the root, so the base problem shares `req.root`.)
            let base_digest = base_problem.content_digest();
            let logs = self
                .cache
                .get_mut(base_digest, &base_problem)
                .and_then(|entry| entry.logs.clone());
            if let Some(logs) = logs {
                if logs.iter().all(|log| log.compatible_with(&problem)) {
                    self.stats.warm_starts += 1;
                    jobs.push(Job {
                        problem,
                        digest,
                        slot_pin,
                        warm: Some(WarmStart {
                            logs,
                            delta: ReplayDelta::from_perturbations(n, &req.perturbations),
                        }),
                        execute: execute(),
                    });
                    return Ok(Pending::Job {
                        job: jobs.len() - 1,
                        id: req.id,
                        include_schedule: req.include_schedule,
                        outcome: CacheOutcome::Warm,
                    });
                }
            }
        }

        self.stats.cold_runs += 1;
        jobs.push(Job {
            problem,
            digest,
            slot_pin,
            warm: None,
            execute: execute(),
        });
        Ok(Pending::Job {
            job: jobs.len() - 1,
            id: req.id,
            include_schedule: req.include_schedule,
            outcome: CacheOutcome::Cold,
        })
    }

    /// Stages 4–5: run jobs on the engine pool, render the waiting responses
    /// and fold the results into the cache.
    ///
    /// The jobs are split into one contiguous chunk per engine. The calling
    /// thread runs the first chunk itself and spawns a scoped thread for each
    /// other chunk, so with one engine, or one job, no thread is spawned.
    fn dispatch_and_merge(&mut self, jobs: Vec<Job>, pending: &mut [Pending]) {
        if jobs.is_empty() {
            return;
        }
        let chunk = jobs.len().div_ceil(self.engines.len().min(jobs.len()));
        let mut outputs: Vec<Option<JobOutput>> = jobs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut lanes = self
                .engines
                .iter_mut()
                .zip(jobs.chunks(chunk).zip(outputs.chunks_mut(chunk)));
            let (engine, (own_jobs, own_outs)) = lanes.next().expect("a job and an engine");
            for (engine, (job_chunk, out_chunk)) in lanes {
                scope.spawn(move || run_chunk(engine, job_chunk, out_chunk));
            }
            run_chunk(engine, own_jobs, own_outs);
        });
        let outputs: Vec<JobOutput> = outputs
            .into_iter()
            .map(|o| o.expect("every job chunk was dispatched"))
            .collect();

        for p in pending.iter_mut() {
            if let Pending::Job {
                job,
                id,
                include_schedule,
                outcome,
            } = p
            {
                let output = &outputs[*job];
                self.stats.ok += 1;
                let line = wire::render_ok(&OkResponse {
                    id: *id,
                    heuristic: HeuristicKind::all()[output.slot].name(),
                    predicted: output.makespans[output.slot],
                    cache: outcome.label(),
                    schedule: include_schedule.then(|| output.events.clone()),
                    simulated: output.simulated,
                });
                *p = Pending::Ready(line);
            }
        }

        // Merge into the cache in request order, moving each job's problem,
        // logs and events into its entry.
        for (job, output) in jobs.into_iter().zip(outputs) {
            let record = ScheduleRecord {
                events: output.events,
                simulated: output.simulated,
            };
            match self.cache.get_mut(job.digest, &job.problem) {
                Some(entry) => entry.records[output.slot] = Some(record),
                None => {
                    let logs = output.logs.map(Arc::new);
                    let mut entry = CacheEntry::new(job.problem, output.makespans, logs);
                    entry.records[output.slot] = Some(record);
                    self.cache.insert(job.digest, entry);
                }
            }
        }
    }

    /// Serves line-delimited requests from `reader` until EOF or a shutdown
    /// command, writing one response line per request to `writer`.
    ///
    /// Requests are batched adaptively: the loop blocks for the first line,
    /// then drains whatever else has already arrived (up to
    /// [`ServerConfig::max_batch`]) so a burst is dispatched to the engine
    /// pool together while a lone request is answered immediately.
    ///
    /// Reading is bounded too: the reader thread hands lines over a channel
    /// holding at most `max_batch` of them and blocks while it is full, so a
    /// client that writes faster than its answers are read back holds at
    /// most one batch in flight, one batch queued and one line in hand —
    /// the rest stays in the socket and the client gets backpressure.
    pub fn serve<R, W>(&mut self, reader: R, mut writer: W) -> std::io::Result<()>
    where
        R: Read + Send + 'static,
        W: Write,
    {
        let (tx, rx) = mpsc::sync_channel::<std::io::Result<Incoming>>(self.config.max_batch);
        let limit = self.config.max_line_bytes;
        // The reader thread is detached on purpose: a shutdown command must
        // stop the daemon even if the peer never closes its end, and a
        // blocked read cannot be interrupted portably. The thread exits on
        // EOF, on error, or on its next line once the receiver is gone. It
        // never buffers more than `max_line_bytes` bytes of a line, so a
        // peer streaming bytes without a newline cannot grow its memory.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(reader);
            loop {
                match read_bounded_line(&mut reader, limit) {
                    Ok(None) => break,
                    Ok(Some(line)) => {
                        if tx.send(Ok(line)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });

        loop {
            let first = match rx.recv() {
                Ok(Ok(line)) => line,
                Ok(Err(e)) => return Err(e),
                Err(_) => return Ok(()), // EOF
            };
            let mut batch = vec![first];
            while batch.len() < self.config.max_batch {
                match rx.try_recv() {
                    Ok(Ok(line)) => batch.push(line),
                    Ok(Err(e)) => return Err(e),
                    Err(_) => break,
                }
            }
            batch.retain(|l| !matches!(l, Incoming::Line(line) if line.trim().is_empty()));
            let shutdown = if batch.is_empty() {
                false
            } else {
                let (responses, shutdown) = self.handle_lines(batch.iter().map(|l| match l {
                    Incoming::Line(line) => Ok(line.trim()),
                    Incoming::Oversize(len) => Err(*len),
                }));
                for response in responses {
                    writer.write_all(response.as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                shutdown
            };
            if shutdown {
                return Ok(());
            }
        }
    }
}
