//! # gridcast-simulator
//!
//! A discrete-event simulator of message passing on a grid — the substitute for
//! the paper's practical evaluation testbed (88 GRID'5000 machines running a
//! modified MagPIe on top of LAM-MPI).
//!
//! The paper's Section 7 runs each scheduling heuristic for real and compares the
//! measured broadcast completion times (Figure 6) against the pLogP predictions
//! (Figure 5). We do not have the testbed, so this crate *executes* the schedules
//! instead of just predicting them:
//!
//! * every machine is simulated individually ([`plan::SendPlan`] assigns each
//!   machine an ordered list of forwards),
//! * a machine's network interface is busy for the gap `g(m)` of every message it
//!   sends, and a receiver only holds the message `L + g(m)` after the send
//!   started ([`network::NodeNetwork`] resolves the parameters from the grid
//!   topology — intra-cluster vs. inter-cluster),
//! * an event-driven engine ([`engine`]) processes arrivals in time order and
//!   reports per-machine reception times ([`SimulationOutcome`]),
//! * the grid-unaware binomial tree over all ranks ("Default LAM" in Figure 6)
//!   and the schedule-driven grid-aware executions share the same engine,
//! * **personalised** patterns execute too: a [`SizedSendPlan`] carries a
//!   payload per send (relayed concatenations, aggregate blocks, per-machine
//!   slices) and [`execute_sized_plan_with_sink`] prices each gap for those
//!   bytes — the node-level realisation of the relay-capable scatter
//!   schedules of `gridcast_core::patterns`,
//! * every executor is a **lowering onto one discrete-event loop**
//!   ([`engine`]): a monotonic event queue plus per-machine interface and
//!   per-pair wide-area channel resources, emitting the trace in
//!   non-decreasing time order to a caller-chosen [`TraceSink`] (drop,
//!   count, stream, or retain),
//! * **what-if sweeps** ([`whatif`]) evaluate thousands of perturbed
//!   scenarios — scaled links, degraded uplinks, alternate roots, dropped
//!   relays — against one shared read-only grid on the ordered
//!   work-claiming pool `gridcast_core::pool::run_ordered`, bit-identically
//!   for any thread count,
//! * **faults are first-class events** ([`faults`]): a seeded [`FaultPlan`]
//!   injects deterministic message loss, duplication, extra delay, link
//!   flaps, capacity windows and node crashes; [`execute_plan_under_faults`]
//!   runs plans on the same event loop over a faulty transport, with
//!   ack/retry/timeout semantics, and returns a loud
//!   [`Outcome::Incomplete`] (never a silent hang) when delivery is
//!   impossible, while [`resplice_after_crash`] re-plans the orphaned
//!   remainder of a broadcast around a dead relay.
//!
//! The cost of *computing* a schedule (the paper's Section 7 "algorithm
//! complexity" concern) is not charged: every execution starts when the root
//! holds the message. Scheduling GRID'5000's six clusters takes about a
//! microsecond, at most 1.3·10⁻⁵ of any broadcast of 0.5 MB or more, so
//! charging a wall-clock measurement would only make runs unrepeatable.
//!
//! The simulated times differ from the paper's absolute measurements (different
//! hardware, different MPI), but the relative behaviour of the heuristics — who
//! wins, by roughly what factor — is preserved, which is what the Figure 6
//! reproduction (`gridcast-experiments`, `--bin fig6`) checks.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod error;
pub mod faults;
pub mod network;
pub mod outcome;
pub mod plan;
pub mod simulator;
pub mod trace;
pub mod whatif;

pub use engine::{execute_plan_with_sink, execute_sized_plan_with_sink};
pub use error::SimError;
pub use faults::{
    execute_plan_under_faults, resplice_after_crash, CapacityWindow, FaultPlan, LinkFlap,
    NodeCrash, RetryPolicy,
};
pub use network::NodeNetwork;
pub use outcome::{FaultStats, FaultySimulation, Outcome, SimulationOutcome};
pub use plan::{SendPlan, SizedSend, SizedSendPlan};
pub use simulator::Simulator;
pub use trace::{CountingSink, NullSink, StreamingSink, TraceEvent, TraceKind, TraceSink};
pub use whatif::{
    fault_sweep, Perturbation, ReplayDelta, Scenario, WarmStartTelemetry, WhatIfReport,
    WhatIfRunner, DROP_RELAY_FACTOR,
};
