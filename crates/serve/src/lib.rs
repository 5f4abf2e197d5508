//! Scheduling-as-a-service: a long-running daemon over the gridcast engine.
//!
//! The paper's heuristics answer one question — *how should this broadcast be
//! scheduled on this grid?* — and everything else in the workspace asks it in
//! batch: sweeps, benches, figures. This crate asks it **online**: a daemon
//! reads line-delimited JSON requests (a grid, a root, a payload, optionally a
//! pinned heuristic and a perturbation chain), runs them through a pool of
//! per-worker [`gridcast_core::ScheduleEngine`]s, and answers each line with
//! the chosen heuristic, its predicted makespan and, on request, the full
//! inter-cluster schedule and a simulated execution.
//!
//! Three layers:
//!
//! * [`wire`] — the request/response protocol: parsing of request lines into
//!   typed [`wire::Request`]s (malformed input is an error *response*, never a
//!   panic — the vendored JSON parser is hardened against truncation, bad
//!   escapes, out-of-range numbers and pathological nesting), and
//!   deterministic rendering of responses back to JSON lines.
//! * [`cache`] — the schedule cache, keyed by **full problem identity**
//!   (a word-at-a-time digest of the evaluated link matrices, root and
//!   payload, via [`gridcast_core::BroadcastProblem::content_digest`]), never
//!   by grid name alone. A digest is an index, not a proof: every lookup by
//!   content re-checks bitwise problem identity
//!   ([`gridcast_core::BroadcastProblem::bit_identical`]) before serving. A
//!   second, exact index keyed on the request itself (named or generated
//!   grid, root, payload, perturbation chain) answers an exact repeat, and finds a perturbed
//!   request's base, without building the problem. Cold runs store their
//!   commit logs, so a later request for a *perturbed neighbour* of a cached
//!   problem warm-starts from the logged baseline instead of scheduling from
//!   scratch.
//! * [`server`] — the engine pool and the batching loop: requests are
//!   admitted (size/shape limits), classified against the cache
//!   (hit / warm / cold), run inline with one worker or claimed job by job
//!   by the worker engines (responses are bit-identical for any worker
//!   count), merged back into the cache and answered in request order.
//!
//! [`stats`] instruments the loop: per-request latency histogram (p50/p99),
//! cache hit/warm/cold counters and batch-size telemetry, all queryable
//! in-band with a `{"cmd":"stats"}` control line.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod server;
pub mod stats;
pub mod wire;

pub use cache::{CacheOutcome, ScheduleCache};
pub use server::{Server, ServerConfig};
pub use stats::{LatencyHistogram, ServerStats};
pub use wire::{GridSpec, Request, RequestLine};
