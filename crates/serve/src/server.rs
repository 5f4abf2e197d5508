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
//! 2. **Resolution** — the grid spec is resolved and admitted (named
//!    topologies and generated grids are checked against the admission
//!    limits before they are built, and the few most recently used are
//!    memoised; inline grids are consistency-checked), and perturbations are
//!    validated against the grid. A request on a named or generated grid
//!    gets a request key: its grid, root, payload and chain.
//! 3. **Classification** — an exact repeat of a keyed request finds its
//!    cache entry by the key and is answered from it without building its
//!    problem. Otherwise the [`BroadcastProblem`] and its content digest are
//!    built and looked up by content, which also finds an entry another
//!    request form created. A warm-eligible chain (no grid-wide scaling, no
//!    moved root) patches the links it touches into a copy of its base
//!    problem ([`BroadcastProblem::perturbed`]) — the stored problem of the
//!    base request's entry when the cache holds it, else one built from the
//!    grid; other chains apply to the grid and build the problem from the
//!    result, and the perturbed grid is otherwise built only when the
//!    request asks to `execute` on it. A *hit* serves the stored answer, a
//!    perturbed neighbour of a cached cold run becomes a *warm* job
//!    replaying its commit logs, everything else is a *cold* job.
//! 4. **Dispatch** — the worker engines run the jobs through
//!    [`pool::run_ordered`]: each engine claims the next job when it finishes
//!    one, and the results come back in job order, so the response stream is
//!    bit-identical for any worker count. With one worker engine, or one
//!    job, the batch runs inline on the calling thread. A job schedules once:
//!    one [`ScheduleEngine::price`] pass prices all seven heuristics — cold,
//!    or replaying its base's seven commit logs when warm — picks the pinned
//!    or best slot with the what-if runner's tie-break
//!    ([`gridcast_core::best_slot`]) and keeps that slot's events, which the
//!    job executes when its request asks to.
//! 5. **Merge + render** — every waiting line is rendered, then the job
//!    results are moved into the cache in request order, a new entry
//!    carrying its request's key; every line gets exactly one response line.

use crate::cache::{CacheEntry, CacheOutcome, GridKey, RequestKey, ScheduleCache, ScheduleRecord};
use crate::stats::ServerStats;
use crate::wire::{self, GridSpec, OkResponse, Request, RequestLine};
use gridcast_core::{
    best_slot, pool, warm_eligible, BroadcastProblem, Candidates, CommitLog, HeuristicKind,
    Perturbation, Priced, ReplayDelta, ScheduleEngine,
};
use gridcast_plogp::Time;
use gridcast_simulator::{execute_plan_with_sink, NodeNetwork, NullSink, SendPlan};
use gridcast_topology::{grid5000_table3, ClusterId, Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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

/// Grids the memo keeps, most recently used first to stay. A generated grid
/// at the admission limit of 512 clusters holds 262 144 links of 48 bytes,
/// about 12.6 MB, so the memo stays near 50 MB however many distinct grids
/// clients name; a daemon's working set is a grid or two, and a grid pushed
/// out is regenerated bit-identical when it is named again.
const GRID_MEMO: usize = 4;

/// Memoised grid resolution: named topologies and generated Table 2 grids
/// that passed admission are built once and shared while they stay among
/// the [`GRID_MEMO`] most recently used. Inline grids are not memoised —
/// their identity lives in the problem digest, and callers sending full
/// documents per line get no benefit from a second copy.
#[derive(Debug, Default)]
struct GridCache {
    /// Least recently used first.
    grids: Vec<(GridKey, Arc<Grid>)>,
}

impl GridCache {
    /// The grid `spec` names, admitted under `config`, and its key when it
    /// has one (inline grids have none).
    fn resolve(
        &mut self,
        spec: &GridSpec,
        config: &ServerConfig,
    ) -> Result<(Arc<Grid>, Option<GridKey>), String> {
        let key = match spec {
            GridSpec::Inline(grid) => {
                // Already consistency-checked at parse time.
                admit_grid(grid, config)?;
                return Ok((Arc::new(grid.as_ref().clone()), None));
            }
            GridSpec::Named(name) => GridKey::Named(name.clone()),
            &GridSpec::Table2 {
                clusters,
                seed,
                cluster_size,
            } => {
                // Every cluster of a Table 2 grid has `cluster_size`
                // machines, so admission runs before the grid is built.
                admit(
                    clusters,
                    (clusters as u64).saturating_mul(u64::from(cluster_size)),
                    config,
                )?;
                GridKey::Table2 {
                    clusters,
                    seed,
                    cluster_size,
                }
            }
        };
        if let Some(at) = self.grids.iter().position(|(k, _)| *k == key) {
            self.grids[at..].rotate_left(1);
            let (_, grid) = self.grids.last().expect("the memo holds the grid");
            return Ok((Arc::clone(grid), Some(key)));
        }
        let grid = match &key {
            GridKey::Named(name) if name == "grid5000_table3" => grid5000_table3(),
            GridKey::Named(name) => {
                return Err(format!(
                    "unknown topology `{name}` (the daemon knows \"grid5000_table3\")"
                ))
            }
            &GridKey::Table2 {
                clusters,
                seed,
                cluster_size,
            } => GridGenerator::table2()
                .cluster_size(cluster_size)
                .generate(clusters, &mut ChaCha8Rng::seed_from_u64(seed)),
        };
        admit_grid(&grid, config)?;
        let grid = Arc::new(grid);
        if self.grids.len() == GRID_MEMO {
            self.grids.remove(0);
        }
        self.grids.push((key.clone(), Arc::clone(&grid)));
        Ok((grid, Some(key)))
    }
}

/// Admission of a grid of `clusters` clusters and `nodes` machines.
fn admit(clusters: usize, nodes: u64, config: &ServerConfig) -> Result<(), String> {
    if clusters > config.max_clusters {
        return Err(format!(
            "grid of {clusters} clusters exceeds the admission limit of {}",
            config.max_clusters
        ));
    }
    if nodes > config.max_nodes {
        return Err(format!(
            "grid of {nodes} machines exceeds the admission limit of {}",
            config.max_nodes
        ));
    }
    Ok(())
}

fn admit_grid(grid: &Grid, config: &ServerConfig) -> Result<(), String> {
    let nodes = grid.clusters().iter().map(|c| u64::from(c.size)).sum();
    admit(grid.num_clusters(), nodes, config)
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

/// What a request gets from the cached entry of its exact problem.
enum Stored {
    /// The answer the entry holds, rendered.
    Hit(String),
    /// The entry knows every makespan but not this slot's schedule, or not
    /// its simulation: the slot to re-derive, and the entry's cold logs when
    /// it holds them.
    Rederive {
        slot: usize,
        logs: Option<Arc<Vec<CommitLog>>>,
    },
}

fn stored_answer(entry: &CacheEntry, req: &Request, slot_pin: Option<usize>) -> Stored {
    let slot = slot_pin
        .or_else(|| best_slot(&entry.makespans))
        .expect("an entry holds all seven makespans");
    match &entry.records[slot] {
        Some(record) if !req.execute || record.simulated.is_some() => {
            Stored::Hit(wire::render_ok(&OkResponse {
                id: req.id,
                heuristic: HeuristicKind::all()[slot].name(),
                predicted: entry.makespans[slot],
                cache: CacheOutcome::Hit.label(),
                schedule: req.include_schedule.then(|| record.events.clone()),
                simulated: record.simulated.filter(|_| req.execute),
            }))
        }
        _ => Stored::Rederive {
            slot,
            logs: entry.logs.clone(),
        },
    }
}

/// Where a warm-eligible request's base problem came from.
enum Base {
    /// The stored problem of the entry this base key created.
    Keyed(RequestKey),
    /// Built from the grid: the cache may still hold it under its content.
    Built(BroadcastProblem),
}

struct WarmStart {
    logs: Arc<Vec<CommitLog>>,
    delta: ReplayDelta,
}

struct Job {
    problem: BroadcastProblem,
    digest: u64,
    /// The request's key, for the entry the job's result creates.
    key: Option<RequestKey>,
    slot_pin: Option<usize>,
    warm: Option<WarmStart>,
    /// The (perturbed) grid to execute the answer on, when the request asked
    /// for execution.
    execute: Option<Arc<Grid>>,
}

struct JobOutput {
    priced: Priced,
    simulated: Option<(Time, usize)>,
}

/// Runs one job with a single scheduling pass: the answer's events come from
/// the pass that priced every heuristic, never from scheduling the winner
/// again.
fn run_job(engine: &mut ScheduleEngine, job: &Job) -> JobOutput {
    let kinds = HeuristicKind::all();
    let candidates = match &job.warm {
        Some(warm) => Candidates::Warm {
            logs: &warm.logs,
            delta: &warm.delta,
        },
        None => Candidates::Cold(&kinds),
    };
    let priced = engine.price(&job.problem, candidates, job.slot_pin);
    let simulated = job.execute.as_ref().map(|grid| {
        let network = NodeNetwork::new(grid);
        let plan = SendPlan::from_inter_cluster_events(grid, job.problem.root, &priced.events);
        let outcome = execute_plan_with_sink(
            &network,
            &plan,
            job.problem.message,
            Time::ZERO,
            &mut NullSink,
        );
        (outcome.completion, outcome.events_processed)
    });
    JobOutput { priced, simulated }
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
    #[allow(
        clippy::disallowed_methods,
        reason = "the daemon's per-batch latency stamp is wall-clock time by definition"
    )]
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
        let (base_grid, grid_key) = self.grids.resolve(&req.grid, &self.config)?;
        let n = base_grid.num_clusters();
        validate_against_grid(req, n)?;
        let slot_pin = req
            .heuristic
            .map(|k| HeuristicKind::all().iter().position(|x| *x == k).unwrap());
        let key =
            grid_key.map(|grid| RequestKey::new(grid, req.root, req.payload, &req.perturbations));

        // The warm base of a request its key did not find, and the perturbed
        // grid when its problem was built from it.
        let (mut warm_base, mut applied) = (None, None);
        let (problem, digest, stored) =
            match key.as_ref().and_then(|k| self.cache.get_mut_by_key(k)) {
                // An exact repeat of a keyed request finds its entry by the key:
                // a hit builds, digests and compares no problem.
                Some((digest, entry)) => match stored_answer(entry, req, slot_pin) {
                    Stored::Hit(line) => return Ok(self.hit(line)),
                    rederive => (entry.problem.clone(), digest, Some(rederive)),
                },
                // The content path: another request form may have cached the
                // same problem.
                None => {
                    let problem;
                    (problem, warm_base, applied) =
                        self.build_problem(req, &base_grid, key.as_ref());
                    let digest = problem.content_digest();
                    let stored = self
                        .cache
                        .get_mut(digest, &problem)
                        .map(|entry| stored_answer(entry, req, slot_pin));
                    (problem, digest, stored)
                }
            };

        let (slot_pin, warm) = match stored {
            Some(Stored::Hit(line)) => return Ok(self.hit(line)),
            // The entry knows the makespans but not this slot's schedule (or
            // its simulation). Its own cold logs, replayed under a clean
            // delta, re-derive the schedule without a cold run.
            Some(Stored::Rederive {
                slot,
                logs: Some(logs),
            }) => (
                Some(slot),
                Some(WarmStart {
                    logs,
                    delta: ReplayDelta::clean(n),
                }),
            ),
            Some(Stored::Rederive { logs: None, .. }) => (slot_pin, None),
            // Not cached — but the *unperturbed* neighbour might be, with
            // commit logs to warm-start from. It is looked up, and stamped,
            // only now that the perturbed problem missed. (Warm-eligible
            // chains never move the root, so the base problem shares
            // `req.root`.)
            None => {
                let base = match &warm_base {
                    Some(Base::Keyed(k)) => self.cache.get_mut_by_key(k).map(|(_, entry)| entry),
                    Some(Base::Built(base)) => self.cache.get_mut(base.content_digest(), base),
                    None => None,
                };
                let logs = base
                    .and_then(|entry| entry.logs.clone())
                    .filter(|logs| logs.iter().all(|log| log.compatible_with(&problem)));
                let warm = logs.map(|logs| WarmStart {
                    logs,
                    delta: ReplayDelta::from_perturbations(n, &req.perturbations),
                });
                (slot_pin, warm)
            }
        };
        // The grid a job executes its answer on, built only for a job whose
        // request asks to execute.
        let execute = req.execute.then(|| {
            applied.unwrap_or_else(|| perturbed_grid(&base_grid, req.root, &req.perturbations).0)
        });
        Ok(self.push_job(
            jobs,
            req,
            Job {
                problem,
                digest,
                key,
                slot_pin,
                warm,
                execute,
            },
        ))
    }

    /// The problem of a request its key did not find, its warm base, and the
    /// perturbed grid when the problem was built from it.
    ///
    /// A warm-eligible chain patches the links it touches into a copy of the
    /// base problem, bit-identical to building from the perturbed grid: the
    /// stored problem of the entry the base request's key created when the
    /// cache holds it, else one built from the grid. Other chains (grid-wide
    /// scaling, a moved root) build the perturbed grid and the problem from
    /// it.
    fn build_problem(
        &self,
        req: &Request,
        base_grid: &Arc<Grid>,
        key: Option<&RequestKey>,
    ) -> (BroadcastProblem, Option<Base>, Option<Arc<Grid>>) {
        // An empty chain is its own base: nothing to patch or warm-start.
        if req.perturbations.is_empty() || !warm_eligible(&req.perturbations) {
            let (grid, root) = perturbed_grid(base_grid, req.root, &req.perturbations);
            let problem = BroadcastProblem::from_grid(&grid, root, req.payload);
            return (problem, None, Some(grid));
        }
        let keyed = key.map(RequestKey::base).and_then(|k| {
            let stored = &self.cache.peek_by_key(&k)?.problem;
            Some((
                stored.perturbed(base_grid, &req.perturbations),
                Base::Keyed(k),
            ))
        });
        let (problem, base) = keyed.unwrap_or_else(|| {
            let base = BroadcastProblem::from_grid(base_grid, req.root, req.payload);
            (
                base.perturbed(base_grid, &req.perturbations),
                Base::Built(base),
            )
        });
        (problem, Some(base), None)
    }

    /// Counts a cache hit answered with `line`.
    fn hit(&mut self, line: String) -> Pending {
        self.stats.cache_hits += 1;
        self.stats.ok += 1;
        Pending::Ready(line)
    }

    /// Queues `job` for dispatch, counted as a warm start or a cold run.
    fn push_job(&mut self, jobs: &mut Vec<Job>, req: &Request, job: Job) -> Pending {
        let outcome = if job.warm.is_some() {
            self.stats.warm_starts += 1;
            CacheOutcome::Warm
        } else {
            self.stats.cold_runs += 1;
            CacheOutcome::Cold
        };
        jobs.push(job);
        Pending::Job {
            job: jobs.len() - 1,
            id: req.id,
            include_schedule: req.include_schedule,
            outcome,
        }
    }

    /// Stages 4–5: run jobs on the engine pool, render the waiting responses
    /// and fold the results into the cache.
    ///
    /// The engines are the workers of [`pool::run_ordered`]: each claims the
    /// next job as it finishes one, so a cold run does not hold up the warm
    /// jobs queued behind it. With one engine, or one job, the calling thread
    /// runs every job and no thread is spawned.
    fn dispatch_and_merge(&mut self, jobs: Vec<Job>, pending: &mut [Pending]) {
        if jobs.is_empty() {
            return;
        }
        let outputs = pool::run_ordered(&mut self.engines, jobs.len(), |engine, i| {
            run_job(engine, &jobs[i])
        });

        for p in pending.iter_mut() {
            if let Pending::Job {
                job,
                id,
                include_schedule,
                outcome,
            } = p
            {
                let JobOutput { priced, simulated } = &outputs[*job];
                self.stats.ok += 1;
                let line = wire::render_ok(&OkResponse {
                    id: *id,
                    heuristic: HeuristicKind::all()[priced.slot].name(),
                    predicted: priced.makespans[priced.slot],
                    cache: outcome.label(),
                    schedule: include_schedule.then(|| priced.events.clone()),
                    simulated: *simulated,
                });
                *p = Pending::Ready(line);
            }
        }

        // Merge into the cache in request order, moving each job's problem,
        // logs and events into its entry.
        for (job, JobOutput { priced, simulated }) in jobs.into_iter().zip(outputs) {
            let record = ScheduleRecord {
                events: priced.events,
                simulated,
            };
            match self.cache.get_mut(job.digest, &job.problem) {
                Some(entry) => entry.records[priced.slot] = Some(record),
                None => {
                    let logs = priced.logs.map(Arc::new);
                    let mut entry = CacheEntry::new(job.problem, priced.makespans, logs);
                    entry.records[priced.slot] = Some(record);
                    self.cache.insert_keyed(job.digest, job.key, entry);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;
    use serde::{Serialize as _, Value};

    /// The grid of the server tests, as a request names it.
    const G: &str = r#""grid":{"table2":{"clusters":6,"seed":3,"cluster_size":4}}"#;

    fn grid() -> Grid {
        GridGenerator::table2()
            .cluster_size(4)
            .generate(6, &mut ChaCha8Rng::seed_from_u64(3))
    }

    fn fresh_server() -> Server {
        Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
    }

    fn serve(server: &mut Server, line: &str) -> String {
        server.handle_batch(&[line.to_string()]).0.remove(0)
    }

    fn cache_label(response: &str) -> &str {
        let tag = r#""cache":""#;
        let at = response.find(tag).expect("an ok response") + tag.len();
        let len = response[at..].find('"').unwrap();
        &response[at..at + len]
    }

    /// The key of a request for [`G`] from `root` with a 1 MiB payload.
    fn key(root: usize, chain: &[Perturbation]) -> RequestKey {
        let grid = GridKey::Table2 {
            clusters: 6,
            seed: 3,
            cluster_size: 4,
        };
        RequestKey::new(grid, ClusterId(root), MessageSize::from_mib(1), chain)
    }

    fn table2(seed: u64) -> GridSpec {
        GridSpec::Table2 {
            clusters: 3,
            seed,
            cluster_size: 2,
        }
    }

    #[test]
    fn the_grid_memo_keeps_the_most_recently_used_grids() {
        let config = ServerConfig::default();
        let mut memo = GridCache::default();
        let resolve = |memo: &mut GridCache, seed| memo.resolve(&table2(seed), &config).unwrap();
        let memoised = |memo: &GridCache, seed| {
            memo.grids
                .iter()
                .any(|(k, _)| matches!(*k, GridKey::Table2 { seed: s, .. } if s == seed))
        };
        let (first, key) = resolve(&mut memo, 0);
        assert_eq!(
            key,
            Some(GridKey::Table2 {
                clusters: 3,
                seed: 0,
                cluster_size: 2
            })
        );
        for seed in 1..=GRID_MEMO as u64 {
            resolve(&mut memo, seed);
            assert!(memo.grids.len() <= GRID_MEMO);
        }
        assert_eq!(memo.grids.len(), GRID_MEMO);
        assert!(!memoised(&memo, 0));

        // A memoised grid is shared, and naming it makes it the most recent:
        // seed 2, not seed 1, is the next to go.
        let (one, _) = resolve(&mut memo, 1);
        assert!(Arc::ptr_eq(&one, &resolve(&mut memo, 1).0));
        let (again, _) = resolve(&mut memo, 0);
        assert!(memoised(&memo, 1));
        assert!(!memoised(&memo, 2));
        assert_eq!(memo.grids.len(), GRID_MEMO);
        // A regenerated grid is a new copy of the same grid.
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
    }

    #[test]
    fn requests_differing_in_id_flags_or_pin_share_one_entry() {
        let mut server = fresh_server();
        let first = serve(&mut server, &format!(r#"{{"id":1,{G},"root":2}}"#));
        assert_eq!(cache_label(&first), "cold");
        let repeats = [
            (r#""id":2,"#, "", "hit"),
            ("", r#","include_schedule":true"#, "hit"),
            // The entry's own logs re-derive the simulation, then hold it.
            (r#""id":3,"#, r#","execute":true"#, "warm"),
            ("", r#","execute":true,"include_schedule":true"#, "hit"),
            // A pin the entry holds no schedule for: re-derived, then held.
            ("", r#","heuristic":"Flat Tree""#, "warm"),
            (
                r#""id":4,"#,
                r#","heuristic":"Flat Tree","execute":true"#,
                "warm",
            ),
            (
                "",
                r#","heuristic":"Flat Tree","include_schedule":true"#,
                "hit",
            ),
        ];
        for (id, flags, label) in repeats {
            let response = serve(&mut server, &format!(r#"{{{id}{G},"root":2{flags}}}"#));
            assert_eq!(cache_label(&response), label, "{id}{flags}");
            assert_eq!(server.cache.len(), 1, "{id}{flags}");
        }
        assert!(server.cache.peek_by_key(&key(2, &[])).is_some());
        assert_eq!(server.stats().cold_runs, 1);
    }

    #[test]
    fn a_table2_request_and_the_same_grid_inline_share_one_entry() {
        let doc = Value::Map(vec![("inline".into(), grid().to_value())]);
        let inline = format!(
            r#"{{"grid":{},"root":2}}"#,
            serde_json::to_string(&doc).unwrap()
        );
        let named = format!(r#"{{{G},"root":2}}"#);

        // The inline request has no key: it hits the keyed entry through
        // its content.
        let mut server = fresh_server();
        let cold = serve(&mut server, &named);
        let hit = serve(&mut server, &inline);
        assert_eq!(hit, cold.replace(r#""cache":"cold""#, r#""cache":"hit""#));
        assert_eq!(server.cache.len(), 1);

        // An entry an inline request created carries no key: the keyed
        // request misses the index and hits the entry through its content.
        let mut server = fresh_server();
        let cold = serve(&mut server, &inline);
        assert!(server.cache.peek_by_key(&key(2, &[])).is_none());
        let hit = serve(&mut server, &named);
        assert_eq!(hit, cold.replace(r#""cache":"cold""#, r#""cache":"hit""#));
        assert_eq!(server.cache.len(), 1);
    }

    #[test]
    fn a_content_hit_after_a_key_miss_leaves_its_base_unstamped() {
        // The perturbed problem is looked up before its base is stamped, so a
        // request answered by content does not refresh its base: in a
        // three-entry cache the base stays the least recent cold run, and
        // the second cold run after it evicts it.
        let mut server = Server::new(ServerConfig {
            workers: 1,
            cache_capacity: 3,
            ..ServerConfig::default()
        });
        let line = |root: usize, chain: &[&str]| {
            let chain = if chain.is_empty() {
                String::new()
            } else {
                format!(r#","perturbations":[{}]"#, chain.join(","))
            };
            format!(r#"{{{G},"root":{root}{chain}}}"#)
        };
        let link = r#"{"kind":"degrade_link","from":1,"to":4,"factor":3.0}"#;
        // A factor of 1 changes no link: the same problem under another key.
        let same = r#"{"kind":"degrade_uplink","cluster":2,"factor":1.0}"#;
        for (request, label) in [
            (line(0, &[]), "cold"),
            (line(0, &[link]), "warm"),
            (line(1, &[]), "cold"),
            (line(0, &[link, same]), "hit"),
            // Evicts the warm entry: it holds no logs.
            (line(2, &[]), "cold"),
            // Evicts the least recent cold run: the base.
            (line(3, &[]), "cold"),
            (line(0, &[]), "cold"),
        ] {
            assert_eq!(
                cache_label(&serve(&mut server, &request)),
                label,
                "{request}"
            );
        }
    }

    #[test]
    fn a_chain_differing_in_the_last_bit_of_one_factor_misses() {
        let factor: f64 = 1.7;
        let nudged = f64::from_bits(factor.to_bits() + 1);
        let uplink = |factor| Perturbation::DegradeUplink {
            cluster: ClusterId(1),
            factor,
        };
        // The two factors make different problems, so a shared answer
        // would be a wrong one.
        let grid = grid();
        let base = BroadcastProblem::from_grid(&grid, ClusterId(2), MessageSize::from_mib(1));
        let problem = |factor| base.perturbed(&grid, &[uplink(factor)]);
        assert!(!problem(factor).bit_identical(&problem(nudged)));

        let line = |factor: f64| {
            format!(
                r#"{{{G},"root":2,"perturbations":[{{"kind":"degrade_uplink","cluster":1,"factor":{factor:?}}}]}}"#
            )
        };
        let mut server = fresh_server();
        assert_eq!(
            cache_label(&serve(&mut server, &format!(r#"{{{G},"root":2}}"#))),
            "cold"
        );
        assert_eq!(cache_label(&serve(&mut server, &line(factor))), "warm");
        assert_eq!(cache_label(&serve(&mut server, &line(factor))), "hit");
        assert_eq!(cache_label(&serve(&mut server, &line(nudged))), "warm");
        assert_eq!(server.cache.len(), 3);
        assert!(server
            .cache
            .peek_by_key(&key(2, &[uplink(factor)]))
            .is_some());
        assert!(server
            .cache
            .peek_by_key(&key(2, &[uplink(nudged)]))
            .is_some());
    }
}
